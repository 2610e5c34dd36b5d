// Single-source shortest paths on a road-style network, showing the
// weighted Propagation channel (the full Fig. 7 model with an edge
// transform): distance labels relax to the global fixpoint within one
// superstep's exchange rounds instead of one hop per superstep. Both
// variants are verified against Dijkstra.
//
// Run: go run ./examples/sssp
package main

import (
	"fmt"
	"math"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/seq"
)

func main() {
	// A weighted grid (USA-road stand-in): large diameter makes the
	// superstep count the dominant cost for the classic algorithm.
	g := graph.Grid(150, 150, 1000, 5)
	part, err := partition.Hash(g.NumVertices(), 8)
	if err != nil {
		panic(err)
	}
	opts := algorithms.Options{Part: part, MaxSupersteps: 100000}
	const src = 0
	sssp, _ := algorithms.Lookup("sssp")

	classic, err := sssp.Run(algorithms.EngineChannel, "basic", g, opts, algorithms.Params{Source: src})
	if err != nil {
		panic(err)
	}
	prop, err := sssp.Run(algorithms.EngineChannel, "propagation", g, opts, algorithms.Params{Source: src})
	if err != nil {
		panic(err)
	}

	oracle := seq.Dijkstra(g, src)
	reached, far := 0, int64(0)
	for v := range oracle {
		if classic.Dists[v] != oracle[v] || prop.Dists[v] != oracle[v] {
			panic(fmt.Sprintf("distance mismatch at vertex %d", v))
		}
		if oracle[v] != math.MaxInt64 {
			reached++
			if oracle[v] > far {
				far = oracle[v]
			}
		}
	}

	fmt.Printf("SSSP on %d-vertex grid (verified against Dijkstra)\n", g.NumVertices())
	fmt.Printf("reached %d vertices, eccentricity %d\n\n", reached, far)
	fmt.Printf("%-28s %12s %12s %8s\n", "program", "net model", "msg(MB)", "steps")
	for _, r := range []struct {
		name string
		m    algorithms.Metrics
	}{
		{"combined-message channel", classic.Metrics},
		{"weighted propagation", prop.Metrics},
	} {
		fmt.Printf("%-28s %12v %12.2f %8d\n", r.name,
			r.m.Model.Round(1000), float64(r.m.NetBytes)/1e6, r.m.Supersteps)
	}
}
