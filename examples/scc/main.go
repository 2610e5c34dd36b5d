// Strongly connected components with the Min-Label algorithm, using the
// Propagation channel for the forward/backward label propagation — the
// paper's "quick fix" for the algorithm's slow convergence (§V-C2,
// Table VII). The example compares against the standard-channel
// implementation and verifies both against Tarjan's algorithm.
//
// Run: go run ./examples/scc
package main

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/seq"
)

func main() {
	// A directed power-law graph (Wikipedia stand-in) with many
	// nontrivial SCCs.
	g := graph.RMAT(11, 6, 9, graph.RMATOptions{NoSelfLoops: true})
	part, err := partition.Hash(g.NumVertices(), 8)
	if err != nil {
		panic(err)
	}
	opts := algorithms.Options{Part: part, MaxSupersteps: 200000}
	scc, _ := algorithms.Lookup("scc")

	basic, err := scc.Run(algorithms.EngineChannel, "basic", g, opts, algorithms.Params{})
	if err != nil {
		panic(err)
	}
	prop, err := scc.Run(algorithms.EngineChannel, "propagation", g, opts, algorithms.Params{})
	if err != nil {
		panic(err)
	}
	mBasic, mProp := basic.Metrics, prop.Metrics

	oracle := seq.SCC(g)
	for v := range oracle {
		if basic.Labels[v] != oracle[v] || prop.Labels[v] != oracle[v] {
			panic(fmt.Sprintf("SCC mismatch at vertex %d", v))
		}
	}

	counts := map[graph.VertexID]int{}
	for _, c := range prop.Labels {
		counts[c]++
	}
	largest := 0
	for _, n := range counts {
		if n > largest {
			largest = n
		}
	}

	fmt.Printf("Min-Label SCC on %d vertices / %d edges (verified against Tarjan)\n",
		g.NumVertices(), g.NumEdges())
	fmt.Printf("%d SCCs, largest has %d vertices\n\n", len(counts), largest)
	fmt.Printf("%-28s %12s %12s %8s\n", "program", "runtime", "msg(MB)", "steps")
	for _, r := range []struct {
		name string
		m    algorithms.Metrics
	}{
		{"standard channels", mBasic},
		{"propagation channel", mProp},
	} {
		fmt.Printf("%-28s %12v %12.2f %8d\n", r.name,
			r.m.SimTime.Round(1000), float64(r.m.NetBytes)/1e6, r.m.Supersteps)
	}
	fmt.Printf("\npropagation speedup: %.2fx runtime, %.1fx fewer supersteps\n",
		mBasic.SimTime.Seconds()/mProp.SimTime.Seconds(),
		float64(mBasic.Supersteps)/float64(mProp.Supersteps))
}
