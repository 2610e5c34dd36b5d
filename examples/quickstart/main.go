// Quickstart: PageRank written against the channel API, following the
// paper's Fig. 1 line by line — a CombinedMessage channel carries the
// rank shares and an Aggregator redistributes the dead-end mass. A
// program is the engine (internal/engine) plus the channels it
// registers (internal/channel) over a vertex placement
// (internal/partition).
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"sort"

	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/ser"
)

func main() {
	// A small power-law web graph (Wikipedia stand-in) on 4 simulated
	// workers.
	g := graph.RMAT(10, 8, 7, graph.RMATOptions{NoSelfLoops: true})
	part, err := partition.Hash(g.NumVertices(), 4)
	if err != nil {
		panic(err)
	}
	const iterations = 30

	pr := make([]float64, g.NumVertices())

	met, err := engine.Run(engine.Config{Part: part}, func(w *engine.Worker) {
		// Two channels, exactly as in the paper's PageRankWorker.
		msg := channel.NewCombinedMessage[float64](w, ser.Float64Codec{}, channel.Sum[float64]())
		agg := channel.NewAggregator[float64](w, ser.Float64Codec{}, channel.Sum[float64](), 0)
		n := float64(w.NumVertices())
		local := make([]float64, w.LocalCount())

		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				local[li] = 1.0 / n
			} else {
				s := agg.Result() / n // the "sink node" mass
				m, _ := msg.Message(li)
				local[li] = 0.15/n + 0.85*(m+s)
			}
			if w.Superstep() <= iterations {
				nbrs := g.Neighbors(w.GlobalID(li))
				if len(nbrs) > 0 {
					share := local[li] / float64(len(nbrs))
					for _, v := range nbrs {
						msg.Send(w.Addr(v), share)
					}
				} else {
					agg.Add(local[li]) // dead end: hand mass to the sink
				}
			} else {
				// write back the final rank and stop
				pr[w.GlobalID(li)] = local[li]
				w.VoteToHalt()
			}
		}
	})
	if err != nil {
		panic(err)
	}

	type ranked struct {
		id graph.VertexID
		pr float64
	}
	top := make([]ranked, 0, len(pr))
	for id, v := range pr {
		top = append(top, ranked{graph.VertexID(id), v})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].pr > top[j].pr })

	fmt.Printf("PageRank over %d vertices / %d edges finished in %d supersteps\n",
		g.NumVertices(), g.NumEdges(), met.Supersteps)
	fmt.Printf("network volume: %.2f MB, simulated distributed runtime: %v\n",
		float64(met.Comm.NetworkBytes)/1e6, met.SimTime().Round(1000))
	fmt.Println("top 5 vertices:")
	for _, r := range top[:5] {
		fmt.Printf("  vertex %6d  rank %.6f\n", r.id, r.pr)
	}
}
