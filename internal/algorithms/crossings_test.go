package algorithms

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/barrier"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/seq"
)

// countingFabric is the in-process fabric with every barrier crossing
// of every worker counted.
type countingFabric struct {
	*comm.InProc
	calls atomic.Int64
}

func (f *countingFabric) Barrier() barrier.Barrier {
	return countingBarrier{f.InProc.Barrier(), &f.calls}
}

type countingBarrier struct {
	barrier.Barrier
	calls *atomic.Int64
}

func (b countingBarrier) Wait() bool {
	b.calls.Add(1)
	return b.Barrier.Wait()
}

func (b countingBarrier) AllReduce(v uint64) (uint64, bool) {
	b.calls.Add(1)
	return b.Barrier.AllReduce(v)
}

// TestSuperstepCrossings pins what a superstep costs in barrier
// crossings — on a socket fabric each one is a round trip to the hub:
// two per exchange round (sends published, inputs consumed), nothing
// for termination, which rides the last round's reduce, and one more
// only on a superstep that cut a checkpoint, to certify the records.
func TestSuperstepCrossings(t *testing.T) {
	const m = 4
	directed := graph.SocialRMAT(8, 6, 42)
	undirected := graph.Undirectify(directed)
	params := Params{Iterations: 10}
	// crossings before superstep 1: registration and Initialize on the
	// channel engine, set-up alone on the baseline
	setup := map[Engine]int64{EngineChannel: 2, EnginePregel: 1}

	for _, tc := range []struct {
		alg     string
		eng     Engine
		variant string
		g       *graph.Graph
		// roundsPerStep is 0 where a step's round count varies
		roundsPerStep int64
		ckptEvery     int
	}{
		{"pagerank", EngineChannel, "scatter", directed, 1, 0},
		{"wcc", EngineChannel, "propagation", undirected, 0, 0},
		{"sv", EngineChannel, "both", undirected, 0, 0},
		{"pagerank", EnginePregel, "basic", directed, 2, 0}, // dangling-mass aggregator: a second round
		{"wcc", EnginePregel, "basic", undirected, 1, 0},
		{"sv", EnginePregel, "reqresp", undirected, 2, 0},
		{"sv", EngineChannel, "both", undirected, 0, 2},
		{"sv", EnginePregel, "reqresp", undirected, 2, 2},
	} {
		name := fmt.Sprintf("%s/%s/%s", tc.alg, tc.eng, tc.variant)
		if tc.ckptEvery > 0 {
			name += fmt.Sprintf("/ckpt%d", tc.ckptEvery)
		}
		t.Run(name, func(t *testing.T) {
			spec, _ := Lookup(tc.alg)
			part := partition.MustHash(tc.g.NumVertices(), m)
			plain, err := spec.Run(tc.eng, tc.variant, tc.g, Options{Part: part}, params)
			if err != nil {
				t.Fatal(err)
			}
			switch tc.alg {
			case "pagerank":
				checkPageRank(t, name, plain.Ranks, seq.PageRank(tc.g, params.Iterations))
			default:
				checkRoots(t, name, plain.Labels, seq.ConnectedComponents(tc.g))
			}

			fab := &countingFabric{InProc: comm.NewInProc(m, comm.CostModel{})}
			opts := Options{Part: part, Fabric: fab}
			if tc.ckptEvery > 0 {
				opts.Checkpoint = &ckpt.Hook{Store: ckpt.NewDir(t.TempDir()), Job: "t", Interval: tc.ckptEvery}
			}
			got, err := spec.Run(tc.eng, tc.variant, tc.g, opts, params)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "counted run", plain, got)

			steps, rounds := int64(got.Metrics.Supersteps), got.Metrics.Rounds
			if tc.roundsPerStep > 0 && rounds != steps*tc.roundsPerStep {
				t.Fatalf("%d rounds in %d supersteps, want %d per step", rounds, steps, tc.roundsPerStep)
			}
			if tc.roundsPerStep == 0 && rounds <= steps {
				t.Fatalf("%d rounds in %d supersteps: the case is meant to cover multi-round steps", rounds, steps)
			}
			var cuts int64
			if tc.ckptEvery > 0 {
				if cuts = steps / int64(tc.ckptEvery); cuts == 0 {
					t.Fatalf("no checkpoint superstep in %d", steps)
				}
			}
			calls := fab.calls.Load()
			if calls%m != 0 {
				t.Fatalf("%d barrier calls over %d workers: the workers disagree on the crossing sequence", calls, m)
			}
			if got, want := calls/m, setup[tc.eng]+2*rounds+cuts; got != want {
				t.Fatalf("%d crossings for %d supersteps, %d rounds, %d checkpoint cuts; want %d set-up + 2 per round + 1 per cut = %d",
					got, steps, rounds, cuts, setup[tc.eng], want)
			}
		})
	}
}
