package channel

import (
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/ser"
)

// Microbenchmarks for the individual channel primitives: these isolate
// the per-message costs behind the table-level results (dense
// superstep-stamped staging in CombinedMessage vs the plan scan in
// ScatterCombine, request dedup in RequestRespond, local traversal in
// Propagation).

const (
	microVertices = 4096
	microWorkers  = 4
	microSteps    = 8
)

func benchRun(b *testing.B, setup func(w *engine.Worker)) {
	b.Helper()
	part := partition.MustHash(microVertices, microWorkers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 100}, setup); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectMessageRing(b *testing.B) {
	benchRun(b, func(w *engine.Worker) {
		ch := NewDirectMessage[uint32](w, ser.Uint32Codec{})
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() <= microSteps {
				ch.Send(w.Addr((id+1)%microVertices), id)
			} else {
				w.VoteToHalt()
			}
		}
	})
}

func BenchmarkCombinedMessageFanIn(b *testing.B) {
	benchRun(b, func(w *engine.Worker) {
		ch := NewCombinedMessage[uint32](w, ser.Uint32Codec{}, Sum[uint32]())
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() <= microSteps {
				ch.Send(w.Addr(id%64), 1) // 64 hot receivers
				ch.Send(w.Addr((id+1)%microVertices), 1)
			} else {
				w.VoteToHalt()
			}
		}
	})
}

func BenchmarkScatterCombineRing(b *testing.B) {
	benchRun(b, func(w *engine.Worker) {
		ch := NewScatterCombine[uint32](w, ser.Uint32Codec{}, Sum[uint32]())
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				ch.AddAddr(w.Addr((id + 1) % microVertices))
				ch.AddAddr(w.Addr((id + 7) % microVertices))
			}
			if w.Superstep() <= microSteps {
				ch.SetMessage(id)
			} else {
				w.VoteToHalt()
			}
		}
	})
}

// BenchmarkScatterCombineFragment runs one job for b.N supersteps in
// which every vertex of an RMAT graph scatters along the adopted
// fragment plan (built before the clock starts, as on a cached view):
// the steady state of PageRankScatter — gather-reduce, values-only
// frames, indexed store — with nothing else in the superstep. Setup
// allocations amortize over b.N, so allocs/op must read 0.
func BenchmarkScatterCombineFragment(b *testing.B) {
	benchScatterFragment(b, func(w *engine.Worker, ch *ScatterCombine[float64]) {
		w.Compute = func(li int) {
			if w.Superstep() > b.N {
				w.VoteToHalt()
				return
			}
			ch.SetMessage(float64(li))
		}
	})
}

// BenchmarkScatterCombineFragmentValues is the same job written as a
// range program: one ComputeRange call per superstep fills the source
// values through Values(), which also spares AfterCompute the walk that
// proves every source set one. allocs/op must read 0.
func BenchmarkScatterCombineFragmentValues(b *testing.B) {
	benchScatterFragment(b, func(w *engine.Worker, ch *ScatterCombine[float64]) {
		w.ComputeRange = func(lo, hi int) {
			if w.Superstep() > b.N {
				for li := lo; li < hi; li++ {
					w.DeactivateLocal(li)
				}
				return
			}
			vals := ch.Values()
			for li := lo; li < hi; li++ {
				vals[li] = float64(li)
			}
		}
	})
}

// benchScatterFragment times the job of the two benchmarks above; install
// sets the compute function on each worker's channel.
func benchScatterFragment(b *testing.B, install func(w *engine.Worker, ch *ScatterCombine[float64])) {
	g := graph.RMAT(12, 16, 1, graph.RMATOptions{NoSelfLoops: true})
	fs := frag.Build(g, partition.MustHash(g.NumVertices(), microWorkers))
	for w := 0; w < microWorkers; w++ {
		fs.Frag(w).ScatterPlan()
	}
	b.ReportAllocs()
	b.ResetTimer()
	_, err := engine.Run(engine.Config{Frags: fs, MaxSupersteps: b.N + 1}, func(w *engine.Worker) {
		ch := NewScatterCombine[float64](w, ser.Float64Codec{}, Sum[float64]())
		ch.UseFragment(w.Frag())
		install(w, ch)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
}

// BenchmarkCombinerFold is the fold kernel alone, once over every
// segment of the heaviest fragment of the end-to-end benchmark's web
// graph: under partition.Hash(·, 4) worker 0 of rmat:scale=14,ef=16 owns
// 57.6 % of the out-edges, so its fold is every PageRank superstep's
// critical path.
func BenchmarkCombinerFold(b *testing.B) {
	g := graph.RMAT(14, 16, 7, graph.RMATOptions{NoSelfLoops: true})
	f := frag.Build(g, partition.MustHash(g.NumVertices(), microWorkers)).Frag(0)
	b.Run("sum-f64", func(b *testing.B) { benchFold(b, f, Sum[float64]()) })
	b.Run("min-u32", func(b *testing.B) { benchFold(b, f, Min[uint32]()) })
	b.Run("func-f64", func(b *testing.B) {
		benchFold(b, f, CombinerFunc(func(x, y float64) float64 { return x + y }))
	})
}

func benchFold[M Number](b *testing.B, f *frag.Fragment, c Combiner[M]) {
	plan := f.ScatterPlan()
	val := make([]M, f.LocalCount())
	for i := range val {
		val[i] = M(i%1021 + 1)
	}
	out := make([]M, f.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := range plan.To {
			seg := &plan.To[d]
			c.fold(out[:len(seg.Dst)], val, seg.Src, seg.Groups)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.NumEdges()), "ns/edge")
}

// TestScatterSteadyStateZeroAlloc pins the allocation-free claim of the
// plan path: no per-superstep edge list, sort scratch or frame table.
func TestScatterSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	for name, bench := range map[string]func(*testing.B){
		"SetMessage": BenchmarkScatterCombineFragment,
		"Values":     BenchmarkScatterCombineFragmentValues,
	} {
		res := testing.Benchmark(bench)
		if res.N < 500 {
			// the job's ~200 setup allocations are not amortized to zero (a
			// slow or instrumented build, e.g. -race) — don't assert on noise
			t.Skipf("%s: only %d iterations, setup not amortized", name, res.N)
		}
		if a := res.AllocsPerOp(); a > 0 {
			t.Errorf("%s: steady-state scatter allocates %d allocs/superstep, want 0", name, a)
		}
	}
}

func BenchmarkAggregatorSum(b *testing.B) {
	benchRun(b, func(w *engine.Worker) {
		agg := NewAggregator[int64](w, ser.Int64Codec{}, Sum[int64](), 0)
		w.Compute = func(li int) {
			if w.Superstep() <= microSteps {
				agg.Add(1)
			} else {
				w.VoteToHalt()
			}
		}
	})
}

func BenchmarkRequestRespondHub(b *testing.B) {
	benchRun(b, func(w *engine.Worker) {
		vals := make([]uint32, w.LocalCount())
		rr := NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 { return vals[li] })
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() <= microSteps {
				rr.Request(w.Addr(id % 16)) // 16 hubs
			} else {
				w.VoteToHalt()
			}
		}
	})
}

func BenchmarkPropagationPath(b *testing.B) {
	benchRun(b, func(w *engine.Worker) {
		prop := NewPropagation[uint32](w, ser.Uint32Codec{}, Min[uint32]())
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				// 16 disjoint paths of 256 vertices: every hop crosses a
				// worker under hash placement, bounding the round count
				if id+1 < microVertices && (id+1)%256 != 0 {
					prop.AddAddr(w.Addr(id + 1))
				}
				prop.SetValue(id)
				return
			}
			w.VoteToHalt()
		}
	})
}

// propagationFragmentJob prepares the end-to-end benchmark's WCC
// workload (rmat:scale=14,ef=16,seed=7, undirected,
// partition.Hash(·, 4), push plans built as on a cached view) and
// returns a function that runs one job of the given number of
// supersteps on it: in every superstep every vertex seeds its own id
// again — SetValue raises the labels back, the send filter starts over —
// and the adopted fragment plan carries them to the component minima in
// five rounds.
func propagationFragmentJob(tb testing.TB) func(steps int, cmb func() Combiner[uint32]) {
	g := graph.Undirectify(graph.RMAT(14, 16, 7, graph.RMATOptions{NoSelfLoops: true}))
	fs := frag.Build(g, partition.MustHash(g.NumVertices(), microWorkers))
	for w := 0; w < microWorkers; w++ {
		fs.Frag(w).PushPlan()
	}
	return func(steps int, cmb func() Combiner[uint32]) {
		_, err := engine.Run(engine.Config{Frags: fs, MaxSupersteps: steps + 1}, func(w *engine.Worker) {
			prop := NewPropagation[uint32](w, ser.Uint32Codec{}, cmb())
			w.Compute = func(li int) {
				if w.Superstep() > steps {
					w.VoteToHalt()
					return
				}
				if w.Superstep() == 1 && li == 0 {
					prop.UseFragment(w.Frag())
				}
				prop.SetValue(w.GlobalID(li))
			}
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkPropagationFragment: one op is one full WCC convergence of
// all four workers of propagationFragmentJob, the engine's rounds
// included; worker 0 owns over half of the edges and is every round's
// critical path. ns/edge-visit divides by the number of row entries the
// relax kernel walked in one convergence, counted in an untimed pass.
// Setup allocations amortize over b.N; TestPropagationSteadyStateZeroAlloc
// holds the steady state to none.
func BenchmarkPropagationFragment(b *testing.B) {
	converge := propagationFragmentJob(b)
	var visits atomic.Int64
	converge(1, func() Combiner[uint32] {
		cmb := Min[uint32]()
		relax := cmb.relax
		cmb.relax = func(s *pushState[uint32], v uint32, row []uint32) {
			visits.Add(int64(len(row)))
			relax(s, v, row)
		}
		return cmb
	})
	b.ReportAllocs()
	b.ResetTimer()
	converge(b.N, Min[uint32])
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(visits.Load()), "ns/edge-visit")
}

// TestPropagationSteadyStateZeroAlloc pins the allocation-free claim of
// the plan path: queue, staging lists and frame scratch are reused from
// one convergence to the next, so ten more convergences allocate
// nothing more.
func TestPropagationSteadyStateZeroAlloc(t *testing.T) {
	converge := propagationFragmentJob(t)
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(3, func() { converge(steps, Min[uint32]) })
	}
	if short, long := allocs(3), allocs(13); long-short >= 10 {
		t.Errorf("a job of 3 convergences allocates %.0f times, one of 13 %.0f: the steady state is not allocation-free", short, long)
	}
}

func BenchmarkMirrorHubBroadcast(b *testing.B) {
	benchRun(b, func(w *engine.Worker) {
		mr := NewMirror[uint32](w, ser.Uint32Codec{}, Sum[uint32](), 16)
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 && id < 8 {
				for v := uint32(0); v < microVertices; v += 4 {
					mr.AddAddr(w.Addr(v))
				}
			}
			if w.Superstep() <= microSteps {
				if id < 8 {
					mr.SetMessage(id)
				}
			} else {
				w.VoteToHalt()
			}
		}
	})
}

// directRingJob runs BenchmarkDirectMessageRing's job on a ring of n
// vertices: microSteps supersteps in which every vertex sends its id to
// its successor.
func directRingJob(tb testing.TB, n int) {
	part := partition.MustHash(n, microWorkers)
	_, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 100}, func(w *engine.Worker) {
		ch := NewDirectMessage[uint32](w, ser.Uint32Codec{})
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() > microSteps {
				w.VoteToHalt()
				return
			}
			if msgs := ch.Messages(li); w.Superstep() > 1 && (len(msgs) != 1 || msgs[0] != (id+uint32(n)-1)%uint32(n)) {
				tb.Errorf("superstep %d: vertex %d read %v", w.Superstep(), id, msgs)
			}
			ch.Send(w.Addr((id+1)%uint32(n)), id)
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// TestDirectMessageAllocsIndependentOfVertices pins the flat inbox: the
// ring job's allocations stay within one budget at 4 096 and at 16 384
// vertices — staging, arrivals and inbox are a few slices per worker
// that grow by doubling, not a slice per receiving vertex.
func TestDirectMessageAllocsIndependentOfVertices(t *testing.T) {
	const budget = 400
	for _, n := range []int{4096, 16384} {
		if a := testing.AllocsPerRun(3, func() { directRingJob(t, n) }); a > budget {
			t.Errorf("a DirectMessage ring of %d vertices allocates %.0f times, budget %d", n, a, budget)
		} else {
			t.Logf("%d vertices: %.0f allocs", n, a)
		}
	}
}
