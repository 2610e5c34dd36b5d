package algorithms

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Checkpoint-seam overhead benchmarks: the same PageRank job with the
// seam disabled (must cost nothing next to a pre-checkpoint build — the
// pinned channel microbenchmarks gate the engine hot path) and with a
// checkpoint cut every 1 and every 4 supersteps, which prices the full
// record (state plus round 1's outgoing buffers), its encode and the
// store write against job runtime.

func benchCheckpoint(b *testing.B, eng Engine, interval int) {
	b.Helper()
	g := graph.SocialRMAT(10, 8, 42)
	spec, ok := Lookup("pagerank")
	if !ok {
		b.Fatal("pagerank not registered")
	}
	part := partition.MustHash(g.NumVertices(), 4)
	params := Params{Iterations: 20}
	var hook *ckpt.Hook
	if interval > 0 {
		hook = &ckpt.Hook{Store: ckpt.NewDir(b.TempDir()), Job: "bench", Interval: interval}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Options{Part: part, MaxSupersteps: 100000, Checkpoint: hook}
		if _, err := spec.Run(eng, "", g, opts, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpoint(b *testing.B) {
	for _, eng := range []Engine{EngineChannel, EnginePregel} {
		b.Run(string(eng)+"/off", func(b *testing.B) { benchCheckpoint(b, eng, 0) })
		b.Run(string(eng)+"/every1", func(b *testing.B) { benchCheckpoint(b, eng, 1) })
		b.Run(string(eng)+"/every4", func(b *testing.B) { benchCheckpoint(b, eng, 4) })
	}
}
