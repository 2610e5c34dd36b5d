package graph

import (
	"math/rand"
)

// The generators in this file produce the synthetic stand-ins for the
// paper's datasets (Table III). All generators are deterministic given
// the seed so experiments are reproducible.

// Chain generates a directed path 1->0, 2->1, ..., n-1->n-2, i.e. every
// vertex points to its predecessor; vertex 0 is the root. This matches
// the paper's "Chain" dataset used by pointer jumping (each vertex knows
// its parent).
func Chain(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{Src: VertexID(i), Dst: VertexID(i - 1)})
	}
	return FromEdges(n, edges, false)
}

// RandomTree generates a uniformly random recursive tree on n vertices:
// vertex i (i>0) points to a uniformly random parent in [0, i). Vertex 0
// is the root. This matches the paper's "Tree" dataset.
func RandomTree(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		p := VertexID(rng.Intn(i))
		edges = append(edges, Edge{Src: VertexID(i), Dst: p})
	}
	return FromEdges(n, edges, false)
}

// RMATOptions configures the R-MAT generator.
type RMATOptions struct {
	// A, B, C are the quadrant probabilities (D = 1-A-B-C). The paper
	// cites R-MAT [12]; the classic skewed parameters are used by
	// default when all are zero.
	A, B, C float64
	// Weighted assigns uniform random weights in [1, MaxWeight].
	Weighted  bool
	MaxWeight int32
	// NoSelfLoops discards self loops (resampled).
	NoSelfLoops bool
}

func (o *RMATOptions) defaults() {
	if o.A == 0 && o.B == 0 && o.C == 0 {
		o.A, o.B, o.C = 0.57, 0.19, 0.19
	}
	if o.MaxWeight == 0 {
		o.MaxWeight = 100
	}
}

// RMAT generates a directed power-law graph with 2^scale vertices and
// approximately edgeFactor*2^scale edges using the recursive matrix
// method. It stands in for the paper's Wikipedia/WebUK web graphs and,
// after Undirectify, for the Facebook/Twitter social graphs.
func RMAT(scale int, edgeFactor int, seed int64, opts RMATOptions) *Graph {
	opts.defaults()
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := edgeFactor * n
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := rmatEdge(rng, scale, opts)
		if opts.NoSelfLoops && u == v {
			continue
		}
		e := Edge{Src: u, Dst: v}
		if opts.Weighted {
			e.Weight = 1 + rng.Int31n(opts.MaxWeight)
		}
		edges = append(edges, e)
	}
	return FromEdges(n, edges, opts.Weighted)
}

// rmatEdge samples one R-MAT edge: one uniform draw per level picks a
// quadrant of the adjacency matrix, top-left with probability A, then
// top-right (B), bottom-left (C) and bottom-right (D), and sets that
// level's bit of u (bottom half) and of v (right half). The quadrant is
// chosen without branches, since a four-way branch on a skewed draw
// mispredicts about once per level: with t1 = r >= A, t2 = r >= A+B and
// t3 = r >= A+B+C the four quadrants are t = 000, 100, 110 and 111, so the
// u bit is t2 and the v bit is t1^t2^t3.
func rmatEdge(rng *rand.Rand, scale int, opts RMATOptions) (VertexID, VertexID) {
	a, ab, abc := opts.A, opts.A+opts.B, opts.A+opts.B+opts.C
	var u, v VertexID
	for i := 0; i < scale; i++ {
		r := rng.Float64()
		t1, t2, t3 := bit(r >= a), bit(r >= ab), bit(r >= abc)
		u |= t2 << i
		v |= (t1 ^ t2 ^ t3) << i
	}
	return u, v
}

// bit is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func bit(b bool) VertexID {
	if b {
		return 1
	}
	return 0
}

// SocialRMAT generates an undirected power-law graph (Facebook/Twitter
// stand-in): an R-MAT graph undirectified. edgeFactor controls density —
// the paper's Facebook has avg degree ~3 while Twitter has ~70, which is
// the lever behind Table VI's crossover.
func SocialRMAT(scale int, edgeFactor int, seed int64) *Graph {
	g := RMAT(scale, edgeFactor, seed, RMATOptions{NoSelfLoops: true})
	return Undirectify(g)
}

// Grid generates a rows x cols 4-neighbor grid with random weights in
// [1,maxW], undirected (both orientations stored). It stands in for the
// USA road network: bounded degree, large diameter, weighted.
func Grid(rows, cols int, maxW int32, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	edges := make([]Edge, 0, 4*n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				w := 1 + rng.Int31n(maxW)
				edges = append(edges,
					Edge{Src: id(r, c), Dst: id(r, c+1), Weight: w},
					Edge{Src: id(r, c+1), Dst: id(r, c), Weight: w})
			}
			if r+1 < rows {
				w := 1 + rng.Int31n(maxW)
				edges = append(edges,
					Edge{Src: id(r, c), Dst: id(r+1, c), Weight: w},
					Edge{Src: id(r+1, c), Dst: id(r, c), Weight: w})
			}
		}
	}
	g := FromEdges(n, edges, true)
	g.Undirected = true
	return g
}

// RandomDigraph generates a uniform random directed graph with n vertices
// and m edges (self loops excluded). Used by the SCC tests to get graphs
// with many nontrivial strongly connected components.
func RandomDigraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, Edge{Src: u, Dst: v})
	}
	return FromEdges(n, edges, false)
}

// Forest generates a forest of k random trees with n total vertices:
// parent pointers as in RandomTree but with k roots spread evenly. The
// returned graph has an edge from each non-root to its parent.
func Forest(n, k int, seed int64) *Graph {
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, n-k)
	for i := 0; i < n; i++ {
		if i < k {
			continue // roots
		}
		// Parent is any previously placed vertex in the same "stripe" to
		// keep trees disjoint: stripe t contains root t and vertices
		// {k + j : j % k == t}.
		t := (i - k) % k
		// candidates: root t plus earlier stripe members
		count := (i-k)/k + 1 // how many stripe members precede i, incl. root
		pick := rng.Intn(count)
		var p VertexID
		if pick == 0 {
			p = VertexID(t)
		} else {
			p = VertexID(k + (pick-1)*k + t)
		}
		edges = append(edges, Edge{Src: VertexID(i), Dst: p})
	}
	return FromEdges(n, edges, false)
}
