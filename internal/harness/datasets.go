// Package harness holds the paper's Tables IV-VII as one declarative
// table: Entries names every row, Claims every bytes, supersteps and
// modeled-time comparison the paper makes between two rows. The root
// package's BenchmarkTable4-7 range over Entries at ScaleBench; the
// table tests assert every claim at ScaleTest.
package harness

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Scale selects dataset sizes: ScaleTest keeps every dataset under ~10k
// edges, ScaleBench (the root benchmarks', ~10^4-10^5) fits a laptop core.
type Scale int

const (
	ScaleTest Scale = iota
	ScaleBench
)

// Datasets bundles the stand-ins for the paper's Table III: directed
// power-law web graphs (Wikipedia, and the denser, larger WebUK);
// undirected social graphs, sparse (Facebook, avg deg ~3) and dense
// (Twitter, avg deg ~24); the paper's chain and random tree; and for MSF
// a weighted grid (USARoad) and a weighted power-law graph (RMAT24).
type Datasets struct {
	Wiki, WebUK       *graph.Graph
	Facebook, Twitter *graph.Graph
	Chain, Tree       *graph.Graph
	Road, RMATW       *graph.Graph
}

// Load generates all datasets at the given scale (deterministic seeds).
func Load(s Scale) *Datasets { return load(s, 0) }

// load generates the datasets with every generator seed moved by
// offset: the same shapes, other draws.
func load(s Scale, offset int64) *Datasets {
	if s == ScaleTest {
		return &Datasets{
			Wiki:     graph.RMAT(9, 6, 101+offset, graph.RMATOptions{NoSelfLoops: true}),
			WebUK:    graph.RMAT(10, 8, 102+offset, graph.RMATOptions{NoSelfLoops: true}),
			Facebook: graph.SocialRMAT(9, 2, 103+offset),
			Twitter:  graph.SocialRMAT(8, 12, 104+offset),
			Chain:    graph.Chain(2000),
			Tree:     graph.RandomTree(2000, 105+offset),
			Road:     graph.Grid(40, 40, 1000, 106+offset),
			RMATW:    graph.Undirectify(graph.RMAT(8, 8, 107+offset, graph.RMATOptions{Weighted: true, MaxWeight: 1000, NoSelfLoops: true})),
		}
	}
	return &Datasets{
		Wiki:     graph.RMAT(11, 8, 101+offset, graph.RMATOptions{NoSelfLoops: true}),
		WebUK:    graph.RMAT(12, 10, 102+offset, graph.RMATOptions{NoSelfLoops: true}),
		Facebook: graph.SocialRMAT(11, 2, 103+offset),
		Twitter:  graph.SocialRMAT(10, 16, 104+offset),
		Chain:    graph.Chain(20000),
		Tree:     graph.RandomTree(20000, 105+offset),
		Road:     graph.Grid(80, 80, 1000, 106+offset),
		RMATW:    graph.Undirectify(graph.RMAT(10, 8, 107+offset, graph.RMATOptions{Weighted: true, MaxWeight: 1000, NoSelfLoops: true})),
	}
}

// byName returns the dataset an Entry names.
func (d *Datasets) byName(name string) *graph.Graph {
	g := map[string]*graph.Graph{"Wikipedia": d.Wiki, "WebUK": d.WebUK, "Facebook": d.Facebook,
		"Twitter": d.Twitter, "Chain": d.Chain, "Tree": d.Tree, "USARoad": d.Road, "RMAT-W": d.RMATW}[name]
	if g == nil {
		panic(fmt.Sprintf("harness: unknown dataset %q", name))
	}
	return g
}

// Workers is the simulated cluster size: the paper's 8 nodes, and a
// Runner's unless it is told otherwise.
const Workers = 8

// HashPart returns the default hash partition for g.
func HashPart(g *graph.Graph) *partition.Partition {
	return partition.MustHash(g.NumVertices(), Workers)
}
