// Package harness runs the paper's experiments (Tables IV-VII) on the
// scaled synthetic datasets and returns their rows in the paper's
// columns: runtime (simulated distributed time) and message volume.
// The root package's BenchmarkTable4-7 print the same columns per row
// (go test -run '^$' -bench 'Table[4-7]' .).
package harness

import (
	"repro/internal/graph"
	"repro/internal/partition"
)

// Scale selects dataset sizes. Test uses tiny graphs for CI; Bench uses
// the default laptop-scale graphs the EXPERIMENTS.md numbers come from.
type Scale int

const (
	// ScaleTest keeps every dataset under ~10k edges.
	ScaleTest Scale = iota
	// ScaleBench is the default reporting scale (~10^5-10^6 edges).
	ScaleBench
)

// Datasets bundles the stand-ins for the paper's Table III.
type Datasets struct {
	// Wikipedia / WebUK stand-ins: directed power-law web graphs, the
	// second denser and larger.
	Wiki  *graph.Graph
	WebUK *graph.Graph
	// Facebook / Twitter stand-ins: undirected social graphs, sparse
	// (avg deg ~3) and dense (avg deg ~24).
	Facebook *graph.Graph
	Twitter  *graph.Graph
	// Chain and random tree (identical constructions to the paper's).
	Chain *graph.Graph
	Tree  *graph.Graph
	// USARoad stand-in: weighted grid; RMAT24 stand-in: weighted
	// power-law graph.
	Road  *graph.Graph
	RMATW *graph.Graph
}

// Load generates all datasets at the given scale (deterministic seeds).
func Load(s Scale) *Datasets {
	switch s {
	case ScaleTest:
		return &Datasets{
			Wiki:     graph.RMAT(9, 6, 101, graph.RMATOptions{NoSelfLoops: true}),
			WebUK:    graph.RMAT(10, 8, 102, graph.RMATOptions{NoSelfLoops: true}),
			Facebook: graph.SocialRMAT(9, 2, 103),
			Twitter:  graph.SocialRMAT(8, 12, 104),
			Chain:    graph.Chain(2000),
			Tree:     graph.RandomTree(2000, 105),
			Road:     graph.Grid(40, 40, 1000, 106),
			RMATW:    graph.Undirectify(graph.RMAT(8, 8, 107, graph.RMATOptions{Weighted: true, MaxWeight: 1000, NoSelfLoops: true})),
		}
	default:
		return &Datasets{
			Wiki:     graph.RMAT(14, 10, 101, graph.RMATOptions{NoSelfLoops: true}),
			WebUK:    graph.RMAT(15, 16, 102, graph.RMATOptions{NoSelfLoops: true}),
			Facebook: graph.SocialRMAT(14, 2, 103),
			Twitter:  graph.SocialRMAT(12, 24, 104),
			Chain:    graph.Chain(200_000),
			Tree:     graph.RandomTree(200_000, 105),
			Road:     graph.Grid(300, 300, 1000, 106),
			RMATW:    graph.Undirectify(graph.RMAT(13, 8, 107, graph.RMATOptions{Weighted: true, MaxWeight: 1000, NoSelfLoops: true})),
		}
	}
}

// Workers is the simulated cluster size; the paper uses 8 nodes (4
// vCPUs each). We use 8 workers.
const Workers = 8

// HashPart returns the default hash partition for g.
func HashPart(g *graph.Graph) *partition.Partition {
	return partition.MustHash(g.NumVertices(), Workers)
}

// GreedyPart returns the locality partition (METIS stand-in) for g —
// the paper's "(P)" datasets.
func GreedyPart(g *graph.Graph) *partition.Partition {
	return partition.MustGreedy(g, Workers)
}
