package graph

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

// csrHash is the FNV-64a of g's raw CSR: Offsets, then Adj, then
// Weights when present, each entry as its little-endian bytes.
func csrHash(g *Graph) uint64 {
	h := fnv.New64a()
	var word [8]byte
	for _, o := range g.Offsets {
		binary.LittleEndian.PutUint64(word[:], o)
		h.Write(word[:])
	}
	for _, v := range g.Adj {
		binary.LittleEndian.PutUint32(word[:4], v)
		h.Write(word[:4])
	}
	for _, w := range g.Weights {
		binary.LittleEndian.PutUint32(word[:4], uint32(w))
		h.Write(word[:4])
	}
	return h.Sum64()
}

// sortedRows returns a copy of g with every row sorted by (neighbour,
// weight), so a hash of it does not depend on the order rows were built in.
func sortedRows(g *Graph) *Graph {
	out := &Graph{Offsets: g.Offsets, Adj: slices.Clone(g.Adj), Undirected: g.Undirected}
	if g.Weights != nil {
		out.Weights = slices.Clone(g.Weights)
	}
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		row := make([]Edge, 0, hi-lo)
		for i := lo; i < hi; i++ {
			e := Edge{Dst: out.Adj[i]}
			if out.Weights != nil {
				e.Weight = out.Weights[i]
			}
			row = append(row, e)
		}
		slices.SortFunc(row, func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Weight, b.Weight))
		})
		for k, e := range row {
			out.Adj[lo+uint64(k)] = e.Dst
			if out.Weights != nil {
				out.Weights[lo+uint64(k)] = e.Weight
			}
		}
	}
	return out
}

// generatorGolden holds one line per generator case: its name, vertex and
// edge counts and the FNV-64a of its CSR, recorded before the R-MAT
// sampler and Undirectify were rewritten. The directed generators are
// hashed raw, so their rows must come out byte-identical; the undirected
// cases are hashed over sorted rows, so only their edge sets are pinned.
var generatorGolden = []string{
	"rmat/default n=1024 m=8192 fnv64a=241799fe9d56ab44",
	"rmat/noselfloops n=1024 m=8192 fnv64a=722372d6e8a294bd",
	"rmat/weighted n=1024 m=8192 fnv64a=f1b6a75919141120",
	"rmat/abc n=1024 m=8192 fnv64a=02154174326411b2",
	"rmat/14x16 n=16384 m=262144 fnv64a=c2705290ce8b4359",
	"chain n=1000 m=999 fnv64a=e1900de8a4d07c03",
	"grid n=1200 m=4660 fnv64a=11289246a49a1a58",
	"randomtree n=1000 m=999 fnv64a=7f560c34961029d6",
	"forest n=1000 m=993 fnv64a=ca951fc383aa837a",
	"randomdigraph n=500 m=3000 fnv64a=60b1b72d25d4809d",
	"socialrmat n=1024 m=12176 fnv64a=39685b67296549b3",
	"undirectify/weighted n=1024 m=12104 fnv64a=1dc026e5eeaac498",
}

func generatorTable() []string {
	raw := func(name string, g *Graph) string {
		return fmt.Sprintf("%s n=%d m=%d fnv64a=%016x", name, g.NumVertices(), g.NumEdges(), csrHash(g))
	}
	sorted := func(name string, g *Graph) string {
		return raw(name, sortedRows(g))
	}
	return []string{
		raw("rmat/default", RMAT(10, 8, 1, RMATOptions{})),
		raw("rmat/noselfloops", RMAT(10, 8, 2, RMATOptions{NoSelfLoops: true})),
		raw("rmat/weighted", RMAT(10, 8, 3, RMATOptions{Weighted: true, MaxWeight: 50})),
		raw("rmat/abc", RMAT(10, 8, 4, RMATOptions{A: 0.45, B: 0.25, C: 0.15})),
		raw("rmat/14x16", RMAT(14, 16, 7, RMATOptions{NoSelfLoops: true})),
		raw("chain", Chain(1000)),
		raw("grid", Grid(30, 40, 100, 5)),
		raw("randomtree", RandomTree(1000, 3)),
		raw("forest", Forest(1000, 7, 11)),
		raw("randomdigraph", RandomDigraph(500, 3000, 9)),
		sorted("socialrmat", SocialRMAT(10, 8, 5)),
		sorted("undirectify/weighted", Undirectify(RMAT(10, 8, 6, RMATOptions{Weighted: true, MaxWeight: 20}))),
	}
}

// TestGeneratorsMatchParent pins every generator's output to the
// recorded hashes, line by line.
func TestGeneratorsMatchParent(t *testing.T) {
	got := generatorTable()
	for i := range max(len(got), len(generatorGolden)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(generatorGolden) {
			w = generatorGolden[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// BenchmarkRMAT generates the scale-14, edge-factor-16 web-graph stand-in
// the end-to-end workloads load.
func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		RMAT(14, 16, 7, RMATOptions{NoSelfLoops: true})
	}
}

// BenchmarkUndirectify builds the undirected view of that graph, as the
// catalog does for every undirected algorithm.
func BenchmarkUndirectify(b *testing.B) {
	g := RMAT(14, 16, 7, RMATOptions{NoSelfLoops: true})
	b.ReportAllocs()
	for b.Loop() {
		Undirectify(g)
	}
}
