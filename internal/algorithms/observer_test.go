package algorithms

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// collectTrace runs an algorithm with a trace observer attached and
// returns the ordered samples.
func collectTrace(t *testing.T, g *graph.Graph, eng Engine, variant string) []obs.SuperstepSample {
	t.Helper()
	spec, ok := Lookup("pagerank")
	if !ok {
		t.Fatal("pagerank not registered")
	}
	opts := hashOpts(g)
	tr := obs.NewTrace(opts.Part.NumWorkers())
	opts.Observer = tr
	if _, err := spec.Run(eng, variant, g, opts, Params{Iterations: 5}); err != nil {
		t.Fatalf("%s/%s: %v", eng, variant, err)
	}
	return tr.Samples()
}

// Both engines must produce the same trace shape: one sample per
// (worker, superstep), each with compute time, exchanged bytes/frames
// and active-vertex counts that add up across workers.
func TestObserverTraceShape(t *testing.T) {
	g := graph.RMAT(8, 6, 42, graph.RMATOptions{})
	for _, tc := range []struct {
		eng      Engine
		variant  string
		channels bool
	}{
		{EngineChannel, "", true},
		{EnginePregel, "", false},
	} {
		samples := collectTrace(t, g, tc.eng, tc.variant)
		if len(samples) == 0 {
			t.Fatalf("%s: no samples", tc.eng)
		}
		// PageRank runs iters+1 supersteps; every (worker, superstep)
		// pair must appear exactly once, in (superstep, worker) order.
		steps := 6
		if len(samples) != steps*testWorkers {
			t.Fatalf("%s: %d samples, want %d", tc.eng, len(samples), steps*testWorkers)
		}
		for i, s := range samples {
			wantStep, wantWorker := i/testWorkers+1, i%testWorkers
			if s.Superstep != wantStep || s.Worker != wantWorker {
				t.Fatalf("%s: sample %d is (step %d, worker %d), want (%d, %d)",
					tc.eng, i, s.Superstep, s.Worker, wantStep, wantWorker)
			}
			if s.ComputeNS < 0 || s.BarrierWaitNS < 0 {
				t.Fatalf("%s: sample %d has negative times: %+v", tc.eng, i, s)
			}
			if s.Rounds < 1 {
				t.Fatalf("%s: sample %d ran %d rounds", tc.eng, i, s.Rounds)
			}
			if tc.channels && len(s.Channels) == 0 {
				t.Fatalf("%s: sample %d has no channel breakdown", tc.eng, i)
			}
			if !tc.channels && len(s.Channels) != 0 {
				t.Fatalf("%s: sample %d unexpectedly has channels", tc.eng, i)
			}
		}
		// every PageRank superstep keeps all vertices active
		var active int64
		for _, s := range samples[:testWorkers] {
			active += s.ActiveVertices
		}
		if active != int64(g.NumVertices()) {
			t.Fatalf("%s: superstep 1 active=%d want %d", tc.eng, active, g.NumVertices())
		}
		// bytes sent and received must balance job-wide (every byte a
		// worker serializes is deserialized by exactly one worker)
		var sent, recv int64
		for _, s := range samples {
			sent += s.BytesSent
			recv += s.BytesRecv
		}
		if sent == 0 || sent != recv {
			t.Fatalf("%s: bytes sent %d vs received %d", tc.eng, sent, recv)
		}
		// the channel engine's per-channel counts sum to the totals
		// minus the frame envelope; just check they are consistent
		if tc.channels {
			for i, s := range samples {
				var chSent int64
				for _, c := range s.Channels {
					chSent += c.BytesSent
				}
				if chSent > s.BytesSent {
					t.Fatalf("channel: sample %d per-channel bytes %d exceed total %d",
						i, chSent, s.BytesSent)
				}
			}
		}
	}
}

// A nil observer must leave the run untouched (guard against the seam
// accidentally becoming mandatory).
func TestObserverNilIsNoop(t *testing.T) {
	g := graph.RMAT(7, 4, 7, graph.RMATOptions{})
	want, _, err := pageRankChannel(g, hashOpts(g), 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := hashOpts(g)
	tr := obs.NewTrace(opts.Part.NumWorkers())
	opts.Observer = tr
	got, _, err := pageRankChannel(g, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("observer changed results at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
