// Connected components with the S-V algorithm, composing two optimized
// channels — the paper's headline example (§III-C): a RequestRespond
// channel fetches each vertex's grandparent without hub congestion, a
// ScatterCombine channel carries the static neighborhood broadcast, and
// a CombinedMessage channel min-merges the root updates. The program
// also runs the unoptimized variant to show the composition payoff.
//
// Run: go run ./examples/connectedcomponents
package main

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/partition"
)

func main() {
	// A dense undirected social graph (Twitter stand-in).
	g := graph.SocialRMAT(11, 16, 3)
	part, err := partition.Hash(g.NumVertices(), 8)
	if err != nil {
		panic(err)
	}
	opts := algorithms.Options{Part: part, MaxSupersteps: 100000}
	sv, _ := algorithms.Lookup("sv")

	basic, err := sv.Run(algorithms.EngineChannel, "basic", g, opts, algorithms.Params{})
	if err != nil {
		panic(err)
	}
	both, err := sv.Run(algorithms.EngineChannel, "both", g, opts, algorithms.Params{})
	if err != nil {
		panic(err)
	}
	mBasic, mBoth := basic.Metrics, both.Metrics

	distinct := map[graph.VertexID]int{}
	for _, c := range basic.Labels {
		distinct[c]++
	}
	largest := 0
	for _, n := range distinct {
		if n > largest {
			largest = n
		}
	}

	fmt.Printf("S-V on %d vertices / %d edges: %d components, largest %d\n",
		g.NumVertices(), g.NumEdges(), len(distinct), largest)
	fmt.Printf("%-34s %12s %12s %8s\n", "program", "runtime", "msg(MB)", "steps")
	for _, r := range []struct {
		name string
		m    algorithms.Metrics
	}{
		{"standard channels", mBasic},
		{"reqresp + scatter-combine", mBoth},
	} {
		fmt.Printf("%-34s %12v %12.2f %8d\n", r.name,
			r.m.SimTime.Round(1000), float64(r.m.NetBytes)/1e6, r.m.Supersteps)
	}
	fmt.Printf("\ncomposition speedup: %.2fx runtime, %.2fx message volume\n",
		mBasic.SimTime.Seconds()/mBoth.SimTime.Seconds(),
		float64(mBasic.NetBytes)/float64(mBoth.NetBytes))
}
