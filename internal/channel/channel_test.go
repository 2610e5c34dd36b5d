package channel

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/ser"
)

// run helper: executes a 2-superstep job: superstep 1 sends, superstep 2
// checks; the check callback receives the worker and halts everything.
func runJob(t *testing.T, nVertices, nWorkers int, setup func(w *engine.Worker)) engine.Metrics {
	t.Helper()
	part := partition.MustHash(nVertices, nWorkers)
	met, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 50}, setup)
	if err != nil {
		t.Fatal(err)
	}
	return met
}

func TestDirectMessageDelivery(t *testing.T) {
	const n = 10
	got := make([][]uint32, n)
	runJob(t, n, 3, func(w *engine.Worker) {
		ch := NewDirectMessage[uint32](w, ser.Uint32Codec{})
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				// everyone sends its id to vertex 0 and to (id+1)%n
				ch.Send(w.Addr(0), id)
				ch.Send(w.Addr((id+1)%n), id*100)
				w.VoteToHalt()
				return
			}
			msgs := ch.Messages(li)
			cp := make([]uint32, len(msgs))
			copy(cp, msgs)
			got[id] = cp
			w.VoteToHalt()
		}
	})
	if len(got[0]) != n+1 { // n ids plus one ring message
		t.Errorf("vertex 0 got %d messages: %v", len(got[0]), got[0])
	}
	for k := 1; k < n; k++ {
		found := false
		for _, m := range got[k] {
			if m == uint32(k-1)*100 {
				found = true
			}
		}
		if !found {
			t.Errorf("vertex %d missing ring message: %v", k, got[k])
		}
	}
}

func TestDirectMessageInboxCleared(t *testing.T) {
	// messages from superstep 1 must not be visible in superstep 3
	const n = 4
	leak := false
	runJob(t, n, 2, func(w *engine.Worker) {
		ch := NewDirectMessage[uint32](w, ser.Uint32Codec{})
		w.Compute = func(li int) {
			switch w.Superstep() {
			case 1:
				ch.Send(w.Addr(w.GlobalID(li)), 7) // self message
			case 2:
				// consume; stay active one more step
			case 3:
				if len(ch.Messages(li)) != 0 {
					leak = true
				}
				w.VoteToHalt()
			}
		}
	})
	if leak {
		t.Error("stale inbox leaked into later superstep")
	}
}

func TestCombinedMessageCombines(t *testing.T) {
	const n = 8
	got := make([]uint32, n)
	has := make([]bool, n)
	runJob(t, n, 3, func(w *engine.Worker) {
		ch := NewCombinedMessage[uint32](w, ser.Uint32Codec{}, Sum[uint32]())
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				// everyone sends 1 to vertex 3, twice
				ch.Send(w.Addr(3), 1)
				ch.Send(w.Addr(3), 1)
				_ = id
				w.VoteToHalt()
				return
			}
			if v, ok := ch.Message(li); ok {
				got[id] = v
				has[id] = true
			}
			w.VoteToHalt()
		}
	})
	if !has[3] || got[3] != 2*n {
		t.Errorf("vertex 3: got %d (has=%v) want %d", got[3], has[3], 2*n)
	}
	for k := 0; k < n; k++ {
		if k != 3 && has[k] {
			t.Errorf("vertex %d unexpectedly received %d", k, got[k])
		}
	}
}

func TestCombinedMessageMinAcrossWorkers(t *testing.T) {
	const n = 12
	var got uint32
	runJob(t, n, 4, func(w *engine.Worker) {
		ch := NewCombinedMessage[uint32](w, ser.Uint32Codec{}, Min[uint32]())
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				ch.Send(w.Addr(5), id+100)
				w.VoteToHalt()
				return
			}
			if id == 5 {
				if v, ok := ch.Message(li); ok {
					got = v
				}
			}
			w.VoteToHalt()
		}
	})
	if got != 100 {
		t.Errorf("min=%d want 100", got)
	}
}

func TestAggregatorSum(t *testing.T) {
	const n = 10
	results := make([]float64, 3)
	runJob(t, n, 3, func(w *engine.Worker) {
		agg := NewAggregator[float64](w, ser.Float64Codec{}, Sum[float64](), 0)
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				agg.Add(float64(w.GlobalID(li)))
				return
			}
			results[w.WorkerID()] = agg.Result()
			w.VoteToHalt()
		}
	})
	want := float64(n * (n - 1) / 2)
	for wk, r := range results {
		if r != want {
			t.Errorf("worker %d sees aggregate %v want %v", wk, r, want)
		}
	}
}

func TestAggregatorZeroWhenNoAdds(t *testing.T) {
	got := []float64{-1, -1} // per worker: compute phases run concurrently
	runJob(t, 4, 2, func(w *engine.Worker) {
		agg := NewAggregator[float64](w, ser.Float64Codec{}, Sum[float64](), 0)
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				return // nobody adds
			}
			got[w.WorkerID()] = agg.Result()
			w.VoteToHalt()
		}
	})
	for wk, g := range got {
		if g != 0 {
			t.Errorf("worker %d: zero aggregate = %v", wk, g)
		}
	}
}

func TestAggregatorFreshEachSuperstep(t *testing.T) {
	// adds at superstep 1 must not leak into the result read at
	// superstep 3
	got := []float64{-1, -1} // per worker: compute phases run concurrently
	runJob(t, 4, 2, func(w *engine.Worker) {
		agg := NewAggregator[float64](w, ser.Float64Codec{}, Sum[float64](), 0)
		w.Compute = func(li int) {
			switch w.Superstep() {
			case 1:
				agg.Add(5)
			case 2:
				// no adds
			case 3:
				got[w.WorkerID()] = agg.Result()
				w.VoteToHalt()
			}
		}
	})
	for wk, g := range got {
		if g != 0 {
			t.Errorf("worker %d: stale aggregate %v leaked", wk, g)
		}
	}
}

func TestScatterCombineStaticPattern(t *testing.T) {
	// ring: everyone scatters its id to both ring neighbors with sum
	// combining, for two supersteps with different values
	const n = 9
	got1 := make([]uint32, n)
	got2 := make([]uint32, n)
	runJob(t, n, 3, func(w *engine.Worker) {
		sc := NewScatterCombine[uint32](w, ser.Uint32Codec{}, Sum[uint32]())
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				sc.AddAddr(w.Addr((id + 1) % n))
				sc.AddAddr(w.Addr((id + n - 1) % n))
				sc.SetMessage(id)
			case 2:
				if v, ok := sc.Message(li); ok {
					got1[id] = v
				}
				sc.SetMessage(id * 10)
			case 3:
				if v, ok := sc.Message(li); ok {
					got2[id] = v
				}
				w.VoteToHalt()
			}
		}
	})
	for k := 0; k < n; k++ {
		want1 := uint32((k+1)%n + (k+n-1)%n)
		if got1[k] != want1 {
			t.Errorf("step2 vertex %d: got %d want %d", k, got1[k], want1)
		}
		want2 := want1 * 10
		if got2[k] != want2 {
			t.Errorf("step3 vertex %d: got %d want %d", k, got2[k], want2)
		}
	}
}

func TestScatterCombineSkipsSilentVertices(t *testing.T) {
	// a vertex that does not SetMessage must contribute nothing
	const n = 6
	got := make([]uint32, n)
	has := make([]bool, n)
	runJob(t, n, 2, func(w *engine.Worker) {
		sc := NewScatterCombine[uint32](w, ser.Uint32Codec{}, Sum[uint32]())
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				sc.AddAddr(w.Addr((id + 1) % n))
				if id%2 == 0 {
					sc.SetMessage(100)
				}
			case 2:
				got[id], has[id] = sc.Message(li)
				w.VoteToHalt()
			}
		}
	})
	for k := 0; k < n; k++ {
		sender := (k + n - 1) % n
		if sender%2 == 0 {
			if !has[k] || got[k] != 100 {
				t.Errorf("vertex %d: got %d has=%v", k, got[k], has[k])
			}
		} else if has[k] {
			t.Errorf("vertex %d received %d from silent sender", k, got[k])
		}
	}
}

func TestScatterCombineMessageBytesBelowDirect(t *testing.T) {
	// With a skewed fan-in, scatter-combine transmits one (dst, value)
	// per unique destination per source worker; per-edge DirectMessage
	// sends retransmit the destination id with every edge.
	const n = 64
	part := partition.MustHash(n, 4)
	runBytes := func(scatter bool) int64 {
		met, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 10}, func(w *engine.Worker) {
			sc := NewScatterCombine[uint32](w, ser.Uint32Codec{}, Sum[uint32]())
			dm := NewDirectMessage[uint32](w, ser.Uint32Codec{})
			w.Compute = func(li int) {
				id := w.GlobalID(li)
				switch w.Superstep() {
				case 1:
					if scatter {
						sc.AddAddr(w.Addr(0))
						sc.AddAddr(w.Addr(1))
					}
				case 2, 3, 4:
					if scatter {
						sc.SetMessage(id)
					} else {
						dm.Send(w.Addr(0), id)
						dm.Send(w.Addr(1), id)
					}
				default:
					w.VoteToHalt()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return met.NetBytes
	}
	direct := runBytes(false)
	scatter := runBytes(true)
	if scatter*4 >= direct {
		t.Errorf("scatter bytes %d not well below per-edge bytes %d", scatter, direct)
	}
}

func TestRequestRespond(t *testing.T) {
	const n = 10
	got := make([]uint32, n)
	runJob(t, n, 3, func(w *engine.Worker) {
		val := make([]uint32, w.LocalCount())
		rr := NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 {
			return val[li]
		})
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				val[li] = id * 7
				rr.Request(w.Addr((id + 3) % n))
			case 2:
				v, ok := rr.Respond()
				if !ok {
					t.Errorf("vertex %d: no response", id)
				}
				got[id] = v
				w.VoteToHalt()
			}
		}
	})
	for k := 0; k < n; k++ {
		want := uint32((k+3)%n) * 7
		if got[k] != want {
			t.Errorf("vertex %d: got %d want %d", k, got[k], want)
		}
	}
}

func TestRequestRespondDedup(t *testing.T) {
	// many vertices request the same destination: the wire must carry
	// one request per (worker, destination), not one per requester
	const n = 40
	part := partition.MustHash(n, 4)
	met, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 10}, func(w *engine.Worker) {
		val := make([]uint32, w.LocalCount())
		rr := NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 { return val[li] })
		w.Compute = func(li int) {
			switch w.Superstep() {
			case 1:
				val[li] = 9
				rr.Request(w.Addr(1)) // everyone asks vertex 1
			case 2:
				if v, ok := rr.Respond(); !ok || v != 9 {
					t.Errorf("bad response %d %v", v, ok)
				}
				w.VoteToHalt()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// requests: 3 remote workers × (count varint + 4B id) ≈ 15B;
	// responses: 3 × (varint + 4B) ≈ 15B. Anything near n×8 means no dedup.
	if met.NetBytes > 60 {
		t.Errorf("dedup missing: %d network bytes", met.NetBytes)
	}
}

func TestRequestRespondRepeatedSupersteps(t *testing.T) {
	// chase a pointer chain through repeated requests
	const n = 16
	parent := func(id graph.VertexID) graph.VertexID {
		if id == 0 {
			return 0
		}
		return id / 2
	}
	finals := make([]uint32, n)
	runJob(t, n, 3, func(w *engine.Worker) {
		cur := make([]uint32, w.LocalCount())
		rr := NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 { return cur[li] })
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				cur[li] = parent(id)
				rr.Request(w.Addr(cur[li]))
				return
			}
			v, _ := rr.Respond()
			if v == cur[li] {
				finals[id] = v
				w.VoteToHalt()
				return
			}
			cur[li] = v
			rr.Request(w.Addr(cur[li]))
		}
	})
	for k := 0; k < n; k++ {
		if finals[k] != 0 {
			t.Errorf("vertex %d ended at %d", k, finals[k])
		}
	}
}

func TestPropagationConvergesInOneSuperstep(t *testing.T) {
	// path graph: min id (0) must reach everyone within superstep 1
	const n = 30
	got := make([]uint32, n)
	met := runJob(t, n, 3, func(w *engine.Worker) {
		prop := NewPropagation[uint32](w, ser.Uint32Codec{}, Min[uint32]())
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				if id > 0 {
					prop.AddAddr(w.Addr(id - 1))
				}
				if id < n-1 {
					prop.AddAddr(w.Addr(id + 1))
				}
				prop.SetValue(id)
				return
			}
			if v, ok := prop.Value(li); ok {
				got[id] = v
			} else {
				got[id] = 999
			}
			w.VoteToHalt()
		}
	})
	for k := 0; k < n; k++ {
		if got[k] != 0 {
			t.Errorf("vertex %d converged to %d", k, got[k])
		}
	}
	if met.Supersteps != 2 {
		t.Errorf("supersteps=%d want 2", met.Supersteps)
	}
}

func TestPropagationWeighted(t *testing.T) {
	// 0 -> 1 -> 2 with weights; distances must accumulate
	const n = 3
	got := make([]int64, n)
	runJob(t, n, 2, func(w *engine.Worker) {
		prop := NewWeightedPropagation[int64](w, ser.Int64Codec{}, Min[int64](),
			func(m int64, wt int32) int64 { return m + int64(wt) })
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				if id < n-1 {
					prop.AddWeightedAddr(w.Addr(id+1), int32(10*(id+1)))
				}
				if id == 0 {
					prop.SetValue(0)
				}
				return
			}
			if v, ok := prop.Value(li); ok {
				got[id] = v
			} else {
				got[id] = -1
			}
			w.VoteToHalt()
		}
	})
	if got[0] != 0 || got[1] != 10 || got[2] != 30 {
		t.Errorf("distances=%v want [0 10 30]", got)
	}
}

func TestPropagationBlockCentricTakesMultipleSupersteps(t *testing.T) {
	// with hash partitioning every hop crosses workers, so block-centric
	// mode needs ~n supersteps on a path while full mode needs 1
	const n = 10
	part := partition.MustHash(n, 2)
	run := func(block bool) int {
		met, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 100}, func(w *engine.Worker) {
			var prop *Propagation[uint32]
			if block {
				prop = NewBlockPropagation[uint32](w, ser.Uint32Codec{}, Min[uint32]())
			} else {
				prop = NewPropagation[uint32](w, ser.Uint32Codec{}, Min[uint32]())
			}
			w.Compute = func(li int) {
				id := w.GlobalID(li)
				if w.Superstep() == 1 {
					if id > 0 {
						prop.AddAddr(w.Addr(id - 1))
					}
					if id < n-1 {
						prop.AddAddr(w.Addr(id + 1))
					}
					prop.SetValue(id)
				}
				w.VoteToHalt()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return met.Supersteps
	}
	full := run(false)
	blocky := run(true)
	if full > 2 {
		t.Errorf("full propagation took %d supersteps", full)
	}
	if blocky <= full {
		t.Errorf("block-centric supersteps %d not above full %d", blocky, full)
	}
}

func TestPropagationReset(t *testing.T) {
	// use the channel for two independent propagations on different
	// topologies
	const n = 6
	got1 := make([]uint32, n)
	got2 := make([]uint32, n)
	runJob(t, n, 2, func(w *engine.Worker) {
		prop := NewPropagation[uint32](w, ser.Uint32Codec{}, Min[uint32]())
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				// path 0..n-1
				if id+1 < n {
					prop.AddAddr(w.Addr(id + 1))
				}
				prop.SetValue(id)
			case 2:
				if v, ok := prop.Value(li); ok {
					got1[id] = v
				}
				if li == 0 {
					prop.Reset()
				}
			case 3:
				// two halves, seeded separately
				half := uint32(n / 2)
				if id+1 < n && id+1 != half {
					prop.AddAddr(w.Addr(id + 1))
				}
				prop.SetValue(id + 50)
			case 4:
				if v, ok := prop.Value(li); ok {
					got2[id] = v
				}
				w.VoteToHalt()
			}
		}
	})
	for k := 0; k < n; k++ {
		if got1[k] != 0 {
			t.Errorf("run1 vertex %d = %d", k, got1[k])
		}
	}
	for k := 0; k < n; k++ {
		var want uint32 = 50
		if k >= n/2 {
			want = uint32(n/2) + 50
		}
		if got2[k] != want {
			t.Errorf("run2 vertex %d = %d want %d", k, got2[k], want)
		}
	}
}

func TestPropagationIsolatedVertex(t *testing.T) {
	// a worker whose vertices have no edges must not deadlock
	const n = 4
	runJob(t, n, 4, func(w *engine.Worker) {
		prop := NewPropagation[uint32](w, ser.Uint32Codec{}, Min[uint32]())
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				prop.SetValue(w.GlobalID(li))
				return
			}
			if v, ok := prop.Value(li); !ok || v != w.GlobalID(li) {
				t.Errorf("isolated vertex value %d ok=%v", v, ok)
			}
			w.VoteToHalt()
		}
	})
}

func TestMultipleChannelsCompose(t *testing.T) {
	// the composition smoke test: DirectMessage + CombinedMessage +
	// Aggregator + RequestRespond all in one program, same superstep
	const n = 12
	runJob(t, n, 3, func(w *engine.Worker) {
		val := make([]uint32, w.LocalCount())
		dm := NewDirectMessage[uint32](w, ser.Uint32Codec{})
		cm := NewCombinedMessage[uint32](w, ser.Uint32Codec{}, Sum[uint32]())
		agg := NewAggregator[float64](w, ser.Float64Codec{}, Sum[float64](), 0)
		rr := NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 { return val[li] })
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				val[li] = id
				dm.Send(w.Addr((id+1)%n), id)
				cm.Send(w.Addr(0), 1)
				agg.Add(1)
				rr.Request(w.Addr((id + 2) % n))
			case 2:
				if len(dm.Messages(li)) != 1 {
					t.Errorf("vertex %d: direct messages %v", id, dm.Messages(li))
				}
				if id == 0 {
					if v, _ := cm.Message(li); v != n {
						t.Errorf("combined=%d want %d", v, n)
					}
				}
				if agg.Result() != n {
					t.Errorf("agg=%v want %d", agg.Result(), n)
				}
				if v, ok := rr.Respond(); !ok || v != (id+2)%n {
					t.Errorf("vertex %d: respond %d ok=%v", id, v, ok)
				}
				w.VoteToHalt()
			}
		}
	})
}
