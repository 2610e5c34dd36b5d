package pregel

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/barrier"
	"repro/internal/bsp"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/netcomm"
	"repro/internal/partition"
	"repro/internal/ser"
)

type noRR = struct{}

func basicCfg(n, workers int) Config[uint32, noRR, noRR] {
	return Config[uint32, noRR, noRR]{
		Env:      bsp.Env{Part: partition.MustHash(n, workers)},
		MsgCodec: ser.Uint32Codec{},
	}
}

func TestBasicMessageDelivery(t *testing.T) {
	const n = 10
	got := make([][]uint32, n)
	cfg := basicCfg(n, 3)
	_, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {
		w.Compute = func(li int, msgs []uint32) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				w.Send(0, id)
				w.VoteToHalt()
				return
			}
			cp := make([]uint32, len(msgs))
			copy(cp, msgs)
			got[id] = cp
			w.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != n {
		t.Errorf("vertex 0 received %d messages", len(got[0]))
	}
	for k := 1; k < n; k++ {
		if len(got[k]) != 0 {
			t.Errorf("vertex %d received %v", k, got[k])
		}
	}
}

func TestCombinerPath(t *testing.T) {
	const n = 12
	var got uint32
	cfg := basicCfg(n, 4)
	cfg.Combiner = func(a, b uint32) uint32 { return a + b }
	_, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {
		w.Compute = func(li int, msgs []uint32) {
			if w.Superstep() == 1 {
				w.Send(5, 2)
				w.VoteToHalt()
				return
			}
			if w.GlobalID(li) == 5 {
				if len(msgs) != 1 {
					t.Errorf("combined msgs len=%d", len(msgs))
				} else {
					got = msgs[0]
				}
			}
			w.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*n {
		t.Errorf("combined=%d want %d", got, 2*n)
	}
}

func TestCombinerInboxFreshness(t *testing.T) {
	// a message delivered for superstep 2 must not reappear at 3
	cfg := basicCfg(4, 2)
	cfg.Combiner = func(a, b uint32) uint32 { return a + b }
	leak := make([]bool, 2) // per worker: compute phases run concurrently
	_, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {
		w.Compute = func(li int, msgs []uint32) {
			switch w.Superstep() {
			case 1:
				w.Send(w.GlobalID(li), 1)
			case 2:
				// stay active, send nothing
			case 3:
				if len(msgs) != 0 {
					leak[w.WorkerID()] = true
				}
				w.VoteToHalt()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if leak[0] || leak[1] {
		t.Error("stale combined message leaked")
	}
}

func TestAggregatorResetsBetweenSupersteps(t *testing.T) {
	// regression: the per-worker partial must not accumulate across
	// supersteps
	cfg := Config[uint32, noRR, float64]{
		Env:        bsp.Env{Part: partition.MustHash(6, 2)},
		MsgCodec:   ser.Uint32Codec{},
		AggCombine: func(a, b float64) float64 { return a + b },
		AggCodec:   ser.Float64Codec{},
	}
	r2 := []float64{-1, -1} // per worker: compute phases run concurrently
	r3 := []float64{-1, -1}
	_, err := Run(cfg, func(w *Worker[uint32, noRR, float64]) {
		w.Compute = func(li int, msgs []uint32) {
			switch w.Superstep() {
			case 1:
				w.Aggregate(1)
			case 2:
				r2[w.WorkerID()] = w.AggResult()
				w.Aggregate(2)
			case 3:
				r3[w.WorkerID()] = w.AggResult()
				w.VoteToHalt()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for wk := range r2 {
		if r2[wk] != 6 {
			t.Errorf("worker %d: superstep2 aggregate %v want 6", wk, r2[wk])
		}
		if r3[wk] != 12 {
			t.Errorf("worker %d: superstep3 aggregate %v want 12 (reset bug if 18)", wk, r3[wk])
		}
	}
}

func TestReqRespMode(t *testing.T) {
	const n = 9
	got := make([]uint32, n)
	vals := make([][]uint32, 3)
	cfg := Config[uint32, uint32, noRR]{
		Env:       bsp.Env{Part: partition.MustHash(n, 3)},
		MsgCodec:  ser.Uint32Codec{},
		RespCodec: ser.Uint32Codec{},
		Responder: func(w *Worker[uint32, uint32, noRR], li int) uint32 {
			return vals[w.WorkerID()][li]
		},
	}
	_, err := Run(cfg, func(w *Worker[uint32, uint32, noRR]) {
		v := make([]uint32, w.LocalCount())
		vals[w.WorkerID()] = v
		w.Compute = func(li int, msgs []uint32) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				v[li] = id * 3
				w.Request((id + 1) % n)
			case 2:
				r, ok := w.Resp()
				if !ok {
					t.Errorf("vertex %d: no response", id)
				}
				got[id] = r
				w.VoteToHalt()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if got[k] != uint32((k+1)%n)*3 {
			t.Errorf("vertex %d got %d", k, got[k])
		}
	}
}

func TestReqRespReplyCarriesIDs(t *testing.T) {
	// Pregel+ reply format sends (id, value) pairs: with many requesters
	// of one hub, reply bytes must scale with pair size (8B), not value
	// size (4B)
	const n = 32
	cfg := Config[uint32, uint32, noRR]{
		Env:       bsp.Env{Part: partition.MustHash(n, 4)},
		MsgCodec:  ser.Uint32Codec{},
		RespCodec: ser.Uint32Codec{},
		Responder: func(w *Worker[uint32, uint32, noRR], li int) uint32 { return 7 },
	}
	met, err := Run(cfg, func(w *Worker[uint32, uint32, noRR]) {
		w.Compute = func(li int, msgs []uint32) {
			if w.Superstep() == 1 {
				w.Request(1)
				return
			}
			if v, ok := w.Resp(); !ok || v != 7 {
				t.Errorf("bad response")
			}
			w.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 remote workers: requests ~ (1+4)B each, replies (varint + 4+4)B
	// each: replies must dominate requests
	if met.NetBytes < 3*(5+9) {
		t.Errorf("unexpectedly small wire traffic: %d", met.NetBytes)
	}
}

func TestGhostModeEquivalence(t *testing.T) {
	// broadcast over a star: hub has degree >= threshold; ghost and
	// basic modes must deliver identical messages
	const n = 20
	star := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		star = append(star, graph.Edge{Src: 0, Dst: graph.VertexID(i)})
	}
	g := graph.FromEdges(n, star, false)

	run := func(threshold int) ([]uint32, int64) {
		got := make([]uint32, n)
		cfg := Config[uint32, noRR, noRR]{
			Env:            bsp.Env{Part: partition.MustHash(n, 4)},
			MsgCodec:       ser.Uint32Codec{},
			Combiner:       func(a, b uint32) uint32 { return a + b },
			GhostThreshold: threshold,
			Adjacency:      g,
		}
		met, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {
			w.Compute = func(li int, msgs []uint32) {
				id := w.GlobalID(li)
				if w.Superstep() == 1 {
					if id == 0 {
						w.SendToNbrs(41)
					}
					w.VoteToHalt()
					return
				}
				if len(msgs) > 0 {
					got[id] = msgs[0]
				}
				w.VoteToHalt()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, met.NetBytes
	}

	basic, basicBytes := run(0)
	ghost, ghostBytes := run(4)
	for k := 1; k < n; k++ {
		if basic[k] != 41 || ghost[k] != 41 {
			t.Errorf("vertex %d: basic=%d ghost=%d", k, basic[k], ghost[k])
		}
	}
	// the hub sends one message per worker instead of one per neighbor
	if ghostBytes >= basicBytes {
		t.Errorf("ghost bytes %d >= basic bytes %d", ghostBytes, basicBytes)
	}
}

func TestGhostModeLowDegreeUsesRegularPath(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}, false)
	got := make([]uint32, 4)
	cfg := Config[uint32, noRR, noRR]{
		Env:            bsp.Env{Part: partition.MustHash(4, 2)},
		MsgCodec:       ser.Uint32Codec{},
		GhostThreshold: 10, // degree 2 < threshold
		Adjacency:      g,
	}
	_, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {
		w.Compute = func(li int, msgs []uint32) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				if id == 0 {
					w.SendToNbrs(9)
				}
				w.VoteToHalt()
				return
			}
			for _, m := range msgs {
				got[id] = m
			}
			w.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 9 || got[2] != 9 || got[3] != 0 {
		t.Errorf("got %v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config[uint32, noRR, noRR]{}, nil); err == nil {
		t.Error("missing Part not rejected")
	}
	if _, err := Run(Config[uint32, noRR, noRR]{Env: bsp.Env{Part: partition.MustHash(2, 1)}}, nil); err == nil {
		t.Error("missing MsgCodec not rejected")
	}
	cfg := basicCfg(2, 1)
	if _, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {}); err == nil ||
		!strings.Contains(err.Error(), "Compute") {
		t.Errorf("missing Compute not rejected: %v", err)
	}
}

func TestMaxSuperstepsEnforced(t *testing.T) {
	cfg := basicCfg(2, 1)
	cfg.MaxSupersteps = 3
	_, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {
		w.Compute = func(li int, msgs []uint32) { /* spin */ }
	})
	if err == nil || !strings.Contains(err.Error(), "MaxSupersteps") {
		t.Fatalf("got %v", err)
	}
}

func TestRequestStop(t *testing.T) {
	cfg := basicCfg(6, 2)
	met, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {
		w.Compute = func(li int, msgs []uint32) {
			if w.Superstep() == 4 {
				w.RequestStop()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps != 4 {
		t.Errorf("supersteps=%d", met.Supersteps)
	}
}

func TestVoteAndWake(t *testing.T) {
	cfg := basicCfg(2, 2)
	woke := false
	_, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {
		w.Compute = func(li int, msgs []uint32) {
			id := w.GlobalID(li)
			switch {
			case w.Superstep() == 1 && id == 0:
				w.VoteToHalt()
			case w.Superstep() == 1:
				w.VoteToHalt()
			case w.Superstep() == 3 && id == 1:
				if len(msgs) == 1 && msgs[0] == 13 {
					woke = true
				}
				w.VoteToHalt()
			}
			if w.Superstep() == 2 && id == 0 {
				// woken? no — 0 stays halted; this branch unreachable
				t.Errorf("vertex 0 unexpectedly active")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = woke
}

func TestWakeByMessage(t *testing.T) {
	cfg := basicCfg(2, 2)
	woke := false
	_, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {
		w.Compute = func(li int, msgs []uint32) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				if id == 0 {
					w.Send(1, 13)
				}
				w.VoteToHalt()
				return
			}
			if id == 1 && len(msgs) == 1 && msgs[0] == 13 {
				woke = true
			}
			w.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Error("vertex 1 not woken by message")
	}
}

// Cancellation mid-run: closing Config.Cancel must unwind every worker
// through the aborted barrier and surface barrier.ErrCancelled.
func TestPregelCancelMidRun(t *testing.T) {
	cancel := make(chan struct{})
	fired := false
	cfg := basicCfg(8, 4)
	cfg.Cancel = cancel
	cfg.MaxSupersteps = 1 << 30
	_, err := Run(cfg, func(w *Worker[uint32, noRR, noRR]) {
		w.Compute = func(li int, msgs []uint32) {
			// stay active forever; worker 0 pulls the plug at step 50
			if w.WorkerID() == 0 && li == 0 && w.Superstep() == 50 && !fired {
				fired = true
				close(cancel)
			}
		}
	})
	if !errors.Is(err, barrier.ErrCancelled) {
		t.Fatalf("expected ErrCancelled, got %v", err)
	}
}

// A peer's round buffer must be consumed exactly and may address only
// what exists: worker 1 runs the real baseline over the socket fabric
// while worker 0 is a scripted peer that sends it one hand-made round-1
// buffer. Bytes left over after the round's format, a buffer cut short
// inside a message, an index past the vertices worker 1 hosts and a
// ghost broadcast of a vertex with no mirror there must each fail the
// job with a worker error naming the source — never be dropped
// silently, never take the process down.
func TestPregelRejectsTrailingAndShortFrames(t *testing.T) {
	reqresp := func(cfg *Config[uint32, uint32, noRR]) {
		cfg.RespCodec = ser.Uint32Codec{}
		cfg.Responder = func(w *Worker[uint32, uint32, noRR], li int) uint32 {
			return make([]uint32, w.LocalCount())[li] // indexes vertex state, as algorithms do
		}
	}
	ghost := func(cfg *Config[uint32, uint32, noRR]) {
		// vertex 0 is a hub with neighbors on both workers
		cfg.GhostThreshold = 2
		cfg.Adjacency = graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}}, false)
	}
	for _, tc := range []struct {
		name  string
		mode  func(*Config[uint32, uint32, noRR])
		frame func(b *ser.Buffer)
		want  string
	}{
		{"trailing", nil, func(b *ser.Buffer) {
			b.WriteUvarint(0) // no messages, then two bytes the format has no place for
			b.WriteUint8(0xde)
			b.WriteUint8(0xad)
		}, "2 trailing bytes in round 1 from worker 0"},
		{"short", nil, func(b *ser.Buffer) {
			b.WriteUvarint(1) // one message: its local index, then half its value
			b.WriteUint32(0)
			b.WriteUint8(7)
			b.WriteUint8(0)
		}, "corrupt frame content from worker 0"},
		{"message-index", nil, func(b *ser.Buffer) {
			b.WriteUvarint(1) // one message to local index 1000 of a 2-vertex worker
			b.WriteUint32(1000)
			b.WriteUint32(7)
		}, "message for local index 1000, worker hosts 2 vertices"},
		{"request-index", reqresp, func(b *ser.Buffer) {
			b.WriteUvarint(0) // no messages, one request for local index 1000
			b.WriteUvarint(1)
			b.WriteUint32(1000)
		}, "request for local index 1000, worker hosts 2 vertices"},
		{"unknown-hub", ghost, func(b *ser.Buffer) {
			b.WriteUvarint(0) // no messages, one ghost broadcast of vertex 3, no hub
			b.WriteUvarint(1)
			b.WriteUint32(3)
			b.WriteUint32(7)
		}, "ghost broadcast of vertex 3, which has no mirror here"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hub := netcomm.NewHub(2, comm.CostModel{}, ln)
			defer hub.Close()
			var clients [2]*netcomm.Client
			for i := range clients {
				if clients[i], err = netcomm.Dial("tcp", ln.Addr().String(), i, i, 2); err != nil {
					t.Fatal(err)
				}
				defer clients[i].Close()
			}
			if err := hub.WaitJoined(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				cfg := Config[uint32, uint32, noRR]{
					Env:      bsp.Env{Part: partition.MustHash(4, 2), Fabric: clients[1]},
					MsgCodec: ser.Uint32Codec{},
				}
				if tc.mode != nil {
					tc.mode(&cfg)
				}
				_, err := Run(cfg, func(w *Worker[uint32, uint32, noRR]) {
					w.Compute = func(li int, msgs []uint32) { w.VoteToHalt() }
				})
				done <- err
			}()

			ep, bar := clients[0].Endpoint(0), clients[0].Barrier()
			if !bar.Wait() { // the baseline's one set-up crossing
				t.Fatal("set-up crossing aborted")
			}
			tc.frame(ep.Out(1))
			ep.Out(0).WriteUvarint(0)
			if err := ep.Flush(); err != nil {
				t.Fatal(err)
			}
			bar.Wait()
			if _, ok := bar.AllReduce(0); ok {
				t.Fatal("the scripted round was accepted")
			}
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("worker 1 hung")
			}
			if err == nil || !strings.Contains(err.Error(), "pregel: worker 1: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want a worker 1 error containing %q", err, tc.want)
			}
		})
	}
}

// A combiner job's buffers are the same bytes run after run: staging
// keeps each destination's entries in first-touch order, so nothing on
// the wire depends on hash-map iteration.
func TestPregelFramesAreDeterministic(t *testing.T) {
	g := graph.SocialRMAT(9, 8, 3)
	run := func() [][][]byte {
		fab := &recorder{Fabric: comm.NewInProc(4), sent: make([][][]byte, 4)}
		cfg := Config[float64, noRR, noRR]{
			Env:       bsp.Env{Part: partition.MustHash(g.NumVertices(), 4), Fabric: fab},
			MsgCodec:  ser.Float64Codec{},
			Combiner:  func(a, b float64) float64 { return a + b },
			Adjacency: g,
		}
		_, err := Run(cfg, func(w *Worker[float64, noRR, noRR]) {
			rank := make([]float64, w.LocalCount())
			w.Compute = func(li int, msgs []float64) {
				rank[li] = 0.15
				if len(msgs) > 0 {
					rank[li] += 0.85 * msgs[0]
				}
				if w.Superstep() == 5 {
					w.VoteToHalt()
					return
				}
				if d := w.Frag().OutDegree(li); d > 0 {
					w.SendToNbrs(rank[li] / float64(d))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return fab.sent
	}
	first, second := run(), run()
	for id := range first {
		if len(first[id]) != len(second[id]) {
			t.Fatalf("worker %d flushed %d buffers, then %d", id, len(first[id]), len(second[id]))
		}
		for k := range first[id] {
			if !bytes.Equal(first[id][k], second[id][k]) {
				t.Fatalf("worker %d: buffer %d differs between two runs of one job", id, k)
			}
		}
	}
}

// recorder is an in-process fabric that keeps a copy of every buffer
// each worker flushes, in flush and then destination order.
type recorder struct {
	comm.Fabric
	sent [][][]byte
}

func (r *recorder) Endpoint(id int) comm.Endpoint {
	return recEndpoint{r.Fabric.Endpoint(id), r.NumWorkers(), &r.sent[id]}
}

type recEndpoint struct {
	comm.Endpoint
	m    int
	sent *[][]byte
}

func (e recEndpoint) Flush() error {
	for dst := 0; dst < e.m; dst++ {
		*e.sent = append(*e.sent, bytes.Clone(e.Out(dst).Bytes()))
	}
	return e.Endpoint.Flush()
}
