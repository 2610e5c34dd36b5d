package algorithms

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// goldenSamplesFile holds the sample table this test compares against,
// recorded from the engines as they stood before both were put on the
// shared superstep driver and recorded again when aggregator partials
// left the round buffers for round 1's barrier crossing (frames and
// bytes moved; results and the other rounds did not). Each sample line
// ends with the hashes of its rounds' flushed buffers, so a change that
// moves bytes without moving a count shows in the table too.
const goldenSamplesFile = "testdata/superstep_samples.golden"

// sampleTable runs each case at 4 workers in-process and renders the
// deterministic part of its trace: per (worker, superstep) the active
// count, rounds, bytes and frames in both directions and the per-channel
// breakdown and the content hash of each round (see hashingFabric),
// then the run's supersteps, rounds and network bytes, then an FNV-64a
// of the result vector (rank bits or labels, in vertex order). Times
// are left out; everything else must not depend on how the driver or a
// program's compute loop is put together.
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
		{"sv", EngineChannel, "basic", undirected},
		{"sv", EngineChannel, "reqresp", undirected},
		{"sv", EngineChannel, "scatter", undirected},
	} {
		spec, _ := Lookup(tc.alg)
		part := partition.MustHash(tc.g.NumVertices(), 4)
		tr := obs.NewTrace(4)
		fab := newHashingFabric(4)
		res, err := spec.Run(tc.eng, tc.variant, tc.g, Options{Part: part, Observer: tr, Fabric: fab}, Params{Iterations: 10})
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", tc.alg, tc.eng, tc.variant, err)
		}
		fmt.Fprintf(&b, "== %s/%s/%s\n", tc.alg, tc.eng, tc.variant)
		next := make([]int, 4) // per worker, its first round not yet printed
		for _, s := range tr.Samples() {
			fmt.Fprintf(&b, "w%d s%d active=%d rounds=%d sent=%d/%d recv=%d/%d ch=%v",
				s.Worker, s.Superstep, s.ActiveVertices, s.Rounds,
				s.BytesSent, s.FramesSent, s.BytesRecv, s.FramesRecv, s.Channels)
			rounds := fab.eps[s.Worker].rounds
			if next[s.Worker]+s.Rounds > len(rounds) {
				t.Fatalf("%s/%s/%s: worker %d flushed %d rounds, its samples count more", tc.alg, tc.eng, tc.variant, s.Worker, len(rounds))
			}
			for _, h := range rounds[next[s.Worker] : next[s.Worker]+s.Rounds] {
				fmt.Fprintf(&b, " %s", h)
			}
			next[s.Worker] += s.Rounds
			b.WriteByte('\n')
		}
		for w, ep := range fab.eps {
			if next[w] != len(ep.rounds) {
				t.Fatalf("%s/%s/%s: worker %d flushed %d rounds, its samples count %d", tc.alg, tc.eng, tc.variant, w, len(ep.rounds), next[w])
			}
		}
		fmt.Fprintf(&b, "supersteps=%d rounds=%d net_bytes=%d\n",
			res.Metrics.Supersteps, res.Metrics.Rounds, res.Metrics.NetBytes)
		fmt.Fprintf(&b, "result fnv64a=%016x\n", resultHash(res))
	}
	return b.String()
}

// hashingFabric is the in-process fabric with every flush hashed: per
// worker, one SHA-256 per round over the round's outgoing buffers in
// destination order, each preceded by its length. The table prints the
// first 16 hex digits of each.
type hashingFabric struct {
	*comm.InProc
	eps []hashingEndpoint
}

type hashingEndpoint struct {
	comm.Endpoint
	m      int
	rounds []string
}

func newHashingFabric(m int) *hashingFabric {
	f := &hashingFabric{InProc: comm.NewInProc(m), eps: make([]hashingEndpoint, m)}
	for i := range f.eps {
		f.eps[i] = hashingEndpoint{Endpoint: f.InProc.Endpoint(i), m: m}
	}
	return f
}

func (f *hashingFabric) Endpoint(id int) comm.Endpoint { return &f.eps[id] }

func (e *hashingEndpoint) Flush() error {
	h := sha256.New()
	var n [8]byte
	for dst := range e.m {
		p := e.Out(dst).Bytes()
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	e.rounds = append(e.rounds, hex.EncodeToString(h.Sum(nil)[:8]))
	return e.Endpoint.Flush()
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
