package algorithms

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// goldenSamplesFile holds the sample table this test compares against,
// recorded from the engines as they stood before both were put on the
// shared superstep driver.
const goldenSamplesFile = "testdata/superstep_samples.golden"

// sampleTable runs each case at 4 workers in-process and renders the
// deterministic part of its trace: per (worker, superstep) the active
// count, rounds, bytes and frames in both directions and the per-channel
// breakdown, then the run's supersteps, rounds and network bytes, then
// an FNV-64a of the result vector (rank bits or labels, in vertex
// order). Times are left out; everything else must not depend on how
// the driver or a program's compute loop is put together.
func sampleTable(t *testing.T) string {
	t.Helper()
	directed := graph.SocialRMAT(8, 6, 42)
	undirected := graph.Undirectify(directed)
	var b strings.Builder
	for _, tc := range []struct {
		alg     string
		eng     Engine
		variant string
		g       *graph.Graph
	}{
		{"pagerank", EngineChannel, "scatter", directed},
		{"sv", EngineChannel, "both", undirected},
		{"wcc", EngineChannel, "propagation", undirected},
		{"pagerank", EnginePregel, "basic", directed},
		{"sv", EnginePregel, "reqresp", undirected},
		{"pagerank", EngineChannel, "basic", directed},
		{"pagerank", EngineChannel, "mirror", directed},
		{"sv", EngineChannel, "basic", undirected},
		{"sv", EngineChannel, "reqresp", undirected},
		{"sv", EngineChannel, "scatter", undirected},
	} {
		spec, _ := Lookup(tc.alg)
		part := partition.MustHash(tc.g.NumVertices(), 4)
		tr := obs.NewTrace(4)
		res, err := spec.Run(tc.eng, tc.variant, tc.g, Options{Part: part, Observer: tr}, Params{Iterations: 10})
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", tc.alg, tc.eng, tc.variant, err)
		}
		fmt.Fprintf(&b, "== %s/%s/%s\n", tc.alg, tc.eng, tc.variant)
		for _, s := range tr.Samples() {
			fmt.Fprintf(&b, "w%d s%d active=%d rounds=%d sent=%d/%d recv=%d/%d ch=%v\n",
				s.Worker, s.Superstep, s.ActiveVertices, s.Rounds,
				s.BytesSent, s.FramesSent, s.BytesRecv, s.FramesRecv, s.Channels)
		}
		fmt.Fprintf(&b, "supersteps=%d rounds=%d net_bytes=%d\n",
			res.Metrics.Supersteps, res.Metrics.Rounds, res.Metrics.NetBytes)
		fmt.Fprintf(&b, "result fnv64a=%016x\n", resultHash(res))
	}
	return b.String()
}

// resultHash is the FNV-64a of a ranks or labels result, each entry as
// its little-endian bits, so a rank that moves by one ulp changes it.
func resultHash(res *Result) uint64 {
	h := fnv.New64a()
	var word [8]byte
	for _, r := range res.Ranks {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(r))
		h.Write(word[:])
	}
	for _, l := range res.Labels {
		binary.LittleEndian.PutUint32(word[:4], l)
		h.Write(word[:4])
	}
	return h.Sum64()
}

// TestSuperstepSamplesMatchParent pins every count the superstep samples
// carry on both engines to the recorded table, line by line.
func TestSuperstepSamplesMatchParent(t *testing.T) {
	want, err := os.ReadFile(goldenSamplesFile)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(sampleTable(t), "\n")
	lines := strings.Split(string(want), "\n")
	for i := range max(len(got), len(lines)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(lines) {
			w = lines[i]
		}
		if g != w {
			t.Fatalf("%s:%d:\n got %q\nwant %q", goldenSamplesFile, i+1, g, w)
		}
	}
}
