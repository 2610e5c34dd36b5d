package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasic(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 0}, {0, 2, 0}, {2, 3, 0}, {3, 0, 0}}, false)
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if got := g.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("nbrs(0)=%v", got)
	}
	if g.OutDegree(1) != 0 {
		t.Errorf("deg(1)=%d", g.OutDegree(1))
	}
	if g.OutDegree(3) != 1 {
		t.Errorf("deg(3)=%d", g.OutDegree(3))
	}
}

func TestFromEdgesWeighted(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 5}, {0, 2, 7}}, true)
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	ws := g.NeighborWeights(0)
	if ws[0] != 5 || ws[1] != 7 {
		t.Errorf("weights=%v", ws)
	}
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromEdges(2, []Edge{{0, 5, 0}}, false)
}

func TestReverse(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 3}, {1, 2, 4}}, true)
	r := g.Reverse()
	if r.OutDegree(0) != 0 || r.OutDegree(1) != 1 || r.OutDegree(2) != 1 {
		t.Errorf("reverse degrees wrong")
	}
	if r.Neighbors(1)[0] != 0 || r.NeighborWeights(1)[0] != 3 {
		t.Errorf("reverse edge 1->0 wrong")
	}
}

func TestEdgesRoundtrip(t *testing.T) {
	g := RMAT(6, 4, 1, RMATOptions{Weighted: true})
	edges := g.Edges()
	g2 := FromEdges(g.NumVertices(), edges, true)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count mismatch")
	}
	for u := 0; u < g.NumVertices(); u++ {
		a, b := g.Neighbors(VertexID(u)), g2.Neighbors(VertexID(u))
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adj mismatch at %d[%d]", u, i)
			}
		}
	}
}

func TestUndirectify(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 2}, {1, 0, 9}, {1, 1, 1}, {2, 3, 4}}, true)
	u := Undirectify(g)
	if !u.Undirected {
		t.Error("not marked undirected")
	}
	// self loop removed; 0-1 deduped (min weight 2); 2-3 symmetric
	if u.NumEdges() != 4 {
		t.Fatalf("edges=%d want 4", u.NumEdges())
	}
	if u.OutDegree(1) != 1 {
		t.Errorf("deg(1)=%d", u.OutDegree(1))
	}
	if w := u.NeighborWeights(0)[0]; w != 2 {
		t.Errorf("dedup weight=%d want 2", w)
	}
	// symmetry
	for v := 0; v < u.NumVertices(); v++ {
		for i, x := range u.Neighbors(VertexID(v)) {
			found := false
			for _, y := range u.Neighbors(x) {
				if y == VertexID(v) {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not symmetric (i=%d)", v, x, i)
			}
		}
	}
}

// undirectifyOracle is the map-based Undirectify the counting-sort
// version replaced: it dedups the edges {u,v} in a map, keeping the
// minimum weight, and builds the result from the map's iteration order,
// so its rows come out in no particular order.
func undirectifyOracle(g *Graph) *Graph {
	n := g.NumVertices()
	type key struct{ a, b VertexID }
	seen := make(map[key]int32, g.NumEdges())
	for u := 0; u < n; u++ {
		ws := []int32(nil)
		if g.Weights != nil {
			ws = g.NeighborWeights(VertexID(u))
		}
		for i, v := range g.Neighbors(VertexID(u)) {
			if VertexID(u) == v {
				continue
			}
			a, b := VertexID(u), v
			if a > b {
				a, b = b, a
			}
			w := int32(0)
			if ws != nil {
				w = ws[i]
			}
			if old, ok := seen[key{a, b}]; !ok || w < old {
				seen[key{a, b}] = w
			}
		}
	}
	edges := make([]Edge, 0, 2*len(seen))
	for k, w := range seen {
		edges = append(edges, Edge{Src: k.a, Dst: k.b, Weight: w}, Edge{Src: k.b, Dst: k.a, Weight: w})
	}
	out := FromEdges(n, edges, g.Weights != nil)
	out.Undirected = true
	return out
}

// sameCSR reports whether a and b are byte-identical graphs.
func sameCSR(a, b *Graph) bool {
	return a.Undirected == b.Undirected && slices.Equal(a.Offsets, b.Offsets) &&
		slices.Equal(a.Adj, b.Adj) && slices.Equal(a.Weights, b.Weights)
}

// TestUndirectifyMatchesMapOracle holds Undirectify to the map version on
// random graphs with duplicate edges, self-loops, isolated vertices and,
// when weighted, duplicates of different weights: the rows must hold the
// oracle's edge sets in ascending order, the result must be symmetric,
// marked undirected, the same on every run, and a fixed point.
func TestUndirectifyMatchesMapOracle(t *testing.T) {
	check := func(name string, g *Graph) {
		t.Helper()
		got := Undirectify(g)
		if !got.Undirected {
			t.Fatalf("%s: not marked undirected", name)
		}
		// The oracle's rows, sorted, must be exactly the result: same
		// edge sets, and the result's rows ascending with no duplicates.
		if want := sortedRows(undirectifyOracle(g)); !sameCSR(got, want) {
			t.Fatalf("%s: rows differ from the oracle's\n got %v %v %v\nwant %v %v %v",
				name, got.Offsets, got.Adj, got.Weights, want.Offsets, want.Adj, want.Weights)
		}
		for u := 0; u < got.NumVertices(); u++ {
			row := got.Neighbors(VertexID(u))
			for i, v := range row {
				if i > 0 && row[i-1] >= v {
					t.Fatalf("%s: row %d not strictly ascending: %v", name, u, row)
				}
				back := got.Neighbors(v)
				j, ok := slices.BinarySearch(back, VertexID(u))
				if !ok {
					t.Fatalf("%s: edge %d->%d has no reverse", name, u, v)
				}
				if got.Weights != nil && got.NeighborWeights(v)[j] != got.NeighborWeights(VertexID(u))[i] {
					t.Fatalf("%s: edge %d-%d weighs differently each way", name, u, v)
				}
			}
		}
		if again := Undirectify(g); !sameCSR(got, again) {
			t.Fatalf("%s: two runs differ", name)
		}
		if twice := Undirectify(got); !sameCSR(got, twice) {
			t.Fatalf("%s: Undirectify(Undirectify(g)) differs from Undirectify(g)", name)
		}
	}
	check("n=0", FromEdges(0, nil, false))
	check("n=1", FromEdges(1, nil, false))
	check("n=1 loop", FromEdges(1, []Edge{{0, 0, 3}, {0, 0, 1}}, true))
	// duplicates of 0-1 in both directions: the minimum weight must win
	check("min weight", FromEdges(3, []Edge{{0, 1, 7}, {1, 0, 2}, {0, 1, 5}, {2, 2, 1}}, true))
	if w := Undirectify(FromEdges(2, []Edge{{0, 1, 7}, {1, 0, 2}, {0, 1, 5}}, true)).Weights; !slices.Equal(w, []int32{2, 2}) {
		t.Fatalf("weights %v, want [2 2]", w)
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		// Up to 4n edges on at most 40 vertices with five weights: plenty
		// of duplicates, loops and duplicates that weigh differently.
		edges := make([]Edge, rng.Intn(4*n))
		for i := range edges {
			edges[i] = Edge{
				Src:    VertexID(rng.Intn(n)),
				Dst:    VertexID(rng.Intn(n)),
				Weight: 1 + rng.Int31n(5),
			}
		}
		for _, weighted := range []bool{false, true} {
			check(fmt.Sprintf("seed %d weighted=%v", seed, weighted), FromEdges(n, edges, weighted))
		}
	}
	check("rmat", RMAT(9, 8, 1, RMATOptions{Weighted: true, MaxWeight: 10}))
}

func TestChain(t *testing.T) {
	g := Chain(5)
	if g.NumEdges() != 4 {
		t.Fatalf("edges=%d", g.NumEdges())
	}
	if g.OutDegree(0) != 0 {
		t.Errorf("root has out-degree %d", g.OutDegree(0))
	}
	for i := 1; i < 5; i++ {
		if got := g.Neighbors(VertexID(i))[0]; got != VertexID(i-1) {
			t.Errorf("parent(%d)=%d", i, got)
		}
	}
}

func TestRandomTreeInvariant(t *testing.T) {
	g := RandomTree(200, 42)
	if g.NumEdges() != 199 {
		t.Fatalf("edges=%d", g.NumEdges())
	}
	// every non-root has exactly one parent with smaller id (acyclic)
	for i := 1; i < 200; i++ {
		nbrs := g.Neighbors(VertexID(i))
		if len(nbrs) != 1 {
			t.Fatalf("vertex %d out-degree %d", i, len(nbrs))
		}
		if nbrs[0] >= VertexID(i) {
			t.Fatalf("parent %d >= child %d", nbrs[0], i)
		}
	}
	if g.OutDegree(0) != 0 {
		t.Errorf("root out-degree %d", g.OutDegree(0))
	}
}

func TestRMATProperties(t *testing.T) {
	g := RMAT(8, 8, 7, RMATOptions{NoSelfLoops: true})
	if g.NumVertices() != 256 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if g.NumEdges() != 8*256 {
		t.Fatalf("m=%d", g.NumEdges())
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if v == VertexID(u) {
				t.Fatalf("self loop at %d", u)
			}
		}
	}
	// determinism is pinned byte for byte by TestGeneratorsMatchParent
	// skew: max degree should be far above average
	if g.MaxDegree() < 4*int(g.AvgDegree()) {
		t.Errorf("power-law graph not skewed: max=%d avg=%f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestRMATWeighted(t *testing.T) {
	g := RMAT(6, 4, 3, RMATOptions{Weighted: true, MaxWeight: 10})
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	for _, w := range g.Weights {
		if w < 1 || w > 10 {
			t.Fatalf("weight %d out of range", w)
		}
	}
}

func TestSocialRMAT(t *testing.T) {
	g := SocialRMAT(7, 4, 5)
	if !g.Undirected {
		t.Error("not undirected")
	}
	if g.NumEdges()%2 != 0 {
		t.Errorf("odd directed edge count %d", g.NumEdges())
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 5, 10, 3)
	if g.NumVertices() != 20 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// interior degree 4, corner degree 2
	if g.OutDegree(0) != 2 {
		t.Errorf("corner degree %d", g.OutDegree(0))
	}
	if g.OutDegree(VertexID(1*5+2)) != 4 {
		t.Errorf("interior degree %d", g.OutDegree(6))
	}
	// weights symmetric
	for u := 0; u < g.NumVertices(); u++ {
		ws := g.NeighborWeights(VertexID(u))
		for i, v := range g.Neighbors(VertexID(u)) {
			for j, bk := range g.Neighbors(v) {
				if bk == VertexID(u) && g.NeighborWeights(v)[j] != ws[i] {
					t.Fatalf("asymmetric weight on %d-%d", u, v)
				}
			}
		}
	}
}

func TestForest(t *testing.T) {
	g := Forest(100, 7, 11)
	if g.NumEdges() != 93 {
		t.Fatalf("edges=%d", g.NumEdges())
	}
	for i := 0; i < 7; i++ {
		if g.OutDegree(VertexID(i)) != 0 {
			t.Errorf("root %d has out-degree", i)
		}
	}
	// trees are disjoint: stripe check — each vertex's chain reaches its
	// stripe root
	for i := 7; i < 100; i++ {
		u := VertexID(i)
		for g.OutDegree(u) > 0 {
			u = g.Neighbors(u)[0]
		}
		if int(u) != (i-7)%7 {
			t.Fatalf("vertex %d reaches root %d, want %d", i, u, (i-7)%7)
		}
	}
}

func TestRandomDigraph(t *testing.T) {
	g := RandomDigraph(50, 200, 1)
	if g.NumVertices() != 50 || g.NumEdges() != 200 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	for u := 0; u < 50; u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if v == VertexID(u) {
				t.Fatal("self loop")
			}
		}
	}
}

func TestEdgeListIORoundtrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := RMAT(5, 4, 9, RMATOptions{Weighted: weighted})
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("size mismatch")
		}
		for u := 0; u < g.NumVertices(); u++ {
			a, b := g.Neighbors(VertexID(u)), g2.Neighbors(VertexID(u))
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("adj mismatch")
				}
			}
			if weighted {
				wa, wb := g.NeighborWeights(VertexID(u)), g2.NeighborWeights(VertexID(u))
				for i := range wa {
					if wa[i] != wb[i] {
						t.Fatalf("weight mismatch")
					}
				}
			}
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"x y\n",
		"2 1\n0\n",
		"2 1 w\n0 1\n",
		"2 2\n0 1\n",
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(bytes.NewBufferString(c)); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

// Property: FromEdges preserves multiset of edges for random inputs.
func TestFromEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		m := rng.Intn(200)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n))}
		}
		g := FromEdges(n, edges, false)
		if g.NumEdges() != m {
			return false
		}
		count := map[[2]VertexID]int{}
		for _, e := range edges {
			count[[2]VertexID{e.Src, e.Dst}]++
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(VertexID(u)) {
				count[[2]VertexID{VertexID(u), v}]--
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
