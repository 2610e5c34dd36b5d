// Package graph provides the in-memory graph representation and the
// synthetic dataset generators used throughout the reproduction. Graphs
// are stored in CSR (compressed sparse row) form with uint32 vertex IDs,
// matching the scale the paper's datasets are scaled down to.
//
// The generators stand in for the paper's datasets (Table III): R-MAT
// power-law graphs replace the web and social graphs, chain and random
// tree are identical constructions, and a weighted grid replaces the USA
// road network. harness.Datasets names the stand-in for each dataset.
package graph

import "fmt"

// VertexID identifies a vertex. IDs are dense: a graph with N vertices
// uses IDs 0..N-1.
type VertexID = uint32

// Graph is a directed graph in CSR form. Undirected graphs are
// represented by storing both orientations of every edge.
type Graph struct {
	// Offsets has length NumVertices+1; the out-neighbors of u are
	// Adj[Offsets[u]:Offsets[u+1]].
	Offsets []uint64
	// Adj holds destination vertex IDs grouped by source.
	Adj []VertexID
	// Weights, if non-nil, holds one weight per entry of Adj.
	Weights []int32
	// Undirected records whether the graph semantically represents an
	// undirected graph (both orientations stored).
	Undirected bool
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the number of stored directed edges (an undirected
// graph reports twice its undirected edge count).
func (g *Graph) NumEdges() int { return len(g.Adj) }

// Neighbors returns the out-neighbors of u. The slice aliases the CSR
// storage and must not be modified.
func (g *Graph) Neighbors(u VertexID) []VertexID {
	return g.Adj[g.Offsets[u]:g.Offsets[u+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(u).
// It panics if the graph is unweighted.
func (g *Graph) NeighborWeights(u VertexID) []int32 {
	if g.Weights == nil {
		panic("graph: unweighted graph")
	}
	return g.Weights[g.Offsets[u]:g.Offsets[u+1]]
}

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u VertexID) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// Weighted reports whether edge weights are present.
func (g *Graph) Weighted() bool { return g.Weights != nil }

// Edge is a single directed edge with an optional weight, used by
// builders and file IO.
type Edge struct {
	Src, Dst VertexID
	Weight   int32
}

// FromEdges builds a CSR graph with n vertices from an edge list. If
// weighted is true the edge weights are retained. The input order is
// preserved within each adjacency list (counting sort by source).
func FromEdges(n int, edges []Edge, weighted bool) *Graph {
	g := &Graph{
		Offsets: make([]uint64, n+1),
		Adj:     make([]VertexID, len(edges)),
	}
	if weighted {
		g.Weights = make([]int32, len(edges))
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", e.Src, e.Dst, n))
		}
		g.Offsets[e.Src+1]++
	}
	for i := 1; i <= n; i++ {
		g.Offsets[i] += g.Offsets[i-1]
	}
	cursor := make([]uint64, n)
	copy(cursor, g.Offsets[:n])
	for _, e := range edges {
		p := cursor[e.Src]
		cursor[e.Src]++
		g.Adj[p] = e.Dst
		if weighted {
			g.Weights[p] = e.Weight
		}
	}
	return g
}

// Edges materializes the edge list of g (allocates).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		nbrs := g.Neighbors(VertexID(u))
		for i, v := range nbrs {
			e := Edge{Src: VertexID(u), Dst: v}
			if g.Weights != nil {
				e.Weight = g.NeighborWeights(VertexID(u))[i]
			}
			out = append(out, e)
		}
	}
	return out
}

// Reverse returns the transpose graph (all edges flipped). Weights are
// carried over. Needed by SCC (backward propagation) and by HCC on
// directed inputs.
func (g *Graph) Reverse() *Graph {
	n := g.NumVertices()
	edges := make([]Edge, 0, g.NumEdges())
	for u := 0; u < n; u++ {
		ws := []int32(nil)
		if g.Weights != nil {
			ws = g.NeighborWeights(VertexID(u))
		}
		for i, v := range g.Neighbors(VertexID(u)) {
			e := Edge{Src: v, Dst: VertexID(u)}
			if ws != nil {
				e.Weight = ws[i]
			}
			edges = append(edges, e)
		}
	}
	return FromEdges(n, edges, g.Weights != nil)
}

// Undirectify returns a graph that stores both orientations of every
// edge of g, deduplicated, with self-loops removed. Every row comes out
// in ascending neighbour order, so the result depends only on g's edge
// set. Weights are kept; of duplicate edges the minimum weight wins.
//
// It runs in linear time, as two counting-sort passes over the pairs
// u→v and v→u of every non-loop edge, a transpose and a transpose back
// that leave every row sorted: pass 1 buckets the pairs by destination,
// pass 2 walks the destinations in ascending order and appends each to
// its source's row.
// The pair set is symmetric, so one offsets array counts both a vertex's
// in-pairs and its out-pairs. A final in-place pass drops the duplicates,
// which pass 2 left next to each other.
func Undirectify(g *Graph) *Graph {
	n := g.NumVertices()
	weighted := g.Weights != nil
	offsets := make([]uint64, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if VertexID(u) != v {
				offsets[u+1]++
				offsets[v+1]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	pairs := offsets[n]
	cursor := make([]uint64, n)

	// Pass 1: bucket by destination; bySrc[p] is the source of the pair
	// in destination bucket slot p.
	bySrc := make([]VertexID, pairs)
	var bySrcW []int32
	if weighted {
		bySrcW = make([]int32, pairs)
	}
	copy(cursor, offsets[:n])
	for u := 0; u < n; u++ {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		for i := lo; i < hi; i++ {
			v := g.Adj[i]
			if VertexID(u) == v {
				continue
			}
			pu, pv := cursor[u], cursor[v]
			cursor[u]++
			cursor[v]++
			bySrc[pv], bySrc[pu] = VertexID(u), v
			if weighted {
				bySrcW[pv], bySrcW[pu] = g.Weights[i], g.Weights[i]
			}
		}
	}

	// Pass 2: destinations in ascending order onto their sources' rows.
	adj := make([]VertexID, pairs)
	var ws []int32
	if weighted {
		ws = make([]int32, pairs)
	}
	copy(cursor, offsets[:n])
	for d := 0; d < n; d++ {
		for p := offsets[d]; p < offsets[d+1]; p++ {
			s := bySrc[p]
			q := cursor[s]
			cursor[s]++
			adj[q] = VertexID(d)
			if weighted {
				ws[q] = bySrcW[p]
			}
		}
	}

	// Drop the duplicates in place, keeping each run's minimum weight.
	w := uint64(0)
	lo := uint64(0)
	for u := 0; u < n; u++ {
		hi := offsets[u+1]
		start := w
		for i := lo; i < hi; i++ {
			if w > start && adj[w-1] == adj[i] {
				if weighted && ws[i] < ws[w-1] {
					ws[w-1] = ws[i]
				}
				continue
			}
			adj[w] = adj[i]
			if weighted {
				ws[w] = ws[i]
			}
			w++
		}
		offsets[u+1] = w
		lo = hi
	}
	out := &Graph{Offsets: offsets, Adj: adj[:w], Undirected: true}
	if weighted {
		out.Weights = ws[:w]
	}
	return out
}

// MaxDegree returns the maximum out-degree.
func (g *Graph) MaxDegree() int {
	m := 0
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.OutDegree(VertexID(u)); d > m {
			m = d
		}
	}
	return m
}

// AvgDegree returns the average out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices())
}
