package frag

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// BenchmarkPushPlanBuild: one op is the cold build of worker 0's push
// plan of rmat:scale=14,ef=16,seed=7 under partition.Hash(·, 4) — what
// Fragment.PushPlan pays on the first job over a view, with a builder of
// its own. The undirected view's plan carries local components; the
// directed graph's plan has none, and its build must not pay for the
// tables it does not keep. B/op and allocs/op are exact from run to run.
func BenchmarkPushPlanBuild(b *testing.B) {
	directed := graph.RMAT(14, 16, 7, graph.RMATOptions{NoSelfLoops: true})
	for _, bc := range []struct {
		name string
		g    *graph.Graph
	}{{"undirected", graph.Undirectify(directed)}, {"directed", directed}} {
		b.Run(bc.name, func(b *testing.B) {
			fs := Build(bc.g, partition.MustHash(bc.g.NumVertices(), 4))
			f := fs.Frag(0)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				new(PushBuilder).buildCSR(new(PushPlan), 0, fs.Part, f.offsets, f.adj, f.weights)
			}
		})
	}
}
