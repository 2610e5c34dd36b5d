// Package frag gives each worker a self-contained, shared-nothing view
// of the graph: a per-worker CSR fragment whose adjacency entries are
// packed pre-resolved addresses (destination worker + destination local
// index in one 64-bit word) instead of global vertex ids.
//
// The paper's architecture (Fig. 2) is shared-nothing — each worker owns
// its vertices and exchanges binary buffers — but handing every worker
// the global CSR plus the global Owner()/LocalIndex() arrays costs two
// dependent random-array lookups per edge in every scatter, propagation
// and mirror loop. A Fragment pays those lookups exactly once, at build
// time; from then on a superstep's neighbor iteration is a sequential
// scan of packed addresses that channels consume without ever touching
// the global graph or the partition. This also makes each worker's
// state self-contained, which is the structural prerequisite for moving
// workers into separate processes.
//
// Layout invariants (the packed-address "wire" format — fragments built
// from the same (graph, partition) pair on different nodes agree):
//
//   - Addr packs (worker, local) as worker<<32 | local. Sorting raw
//     Addr values therefore sorts by (worker, local).
//   - A fragment's adjacency preserves the edge order of the source CSR
//     within each vertex, and Weights (if present) stay parallel to Adj.
//   - Fragment local indices are exactly the partition's local indices:
//     Fragment.GlobalID(li) == Partition.GlobalID(worker, li).
package frag

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Addr is a packed pre-resolved vertex address: the owning worker in the
// high 32 bits and the dense local index on that worker in the low 32
// bits. The natural uint64 order equals (worker, local) order.
type Addr uint64

// Pack builds an Addr from an owner worker and a local index.
func Pack(worker int, local uint32) Addr {
	return Addr(uint64(worker)<<32 | uint64(local))
}

// Worker returns the owning worker.
func (a Addr) Worker() int { return int(a >> 32) }

// Local returns the dense local index on the owning worker.
func (a Addr) Local() uint32 { return uint32(a) }

// Of resolves v's packed address through the partition. This is the
// only place the (owner, localIndex) pair is looked up; hot loops read
// pre-resolved Addr values instead of calling it per edge.
func Of(p *partition.Partition, v graph.VertexID) Addr {
	return Pack(p.Owner(v), uint32(p.LocalIndex(v)))
}

// Fragment is one worker's shared-nothing slice of the graph: a CSR
// over the worker's local vertices whose adjacency entries are packed
// addresses, plus the local-to-global id map. It is immutable after
// Build and safe for concurrent readers (the lazily derived scatter
// and push plans are each built exactly once under their own sync.Once).
type Fragment struct {
	worker      int
	numWorkers  int
	numVertices int // global vertex count

	offsets []uint64
	adj     []Addr
	weights []int32          // parallel to adj; nil if unweighted
	globals []graph.VertexID // local index -> global id (aliases the partition)
	counts  []int            // per-worker local vertex counts

	set      *Fragments // owning set: its DeriveHook is charged the plans
	planOnce sync.Once
	plan     *ScatterPlan
	pushOnce sync.Once
	push     *PushPlan
}

// WorkerID returns the worker this fragment belongs to.
func (f *Fragment) WorkerID() int { return f.worker }

// NumWorkers returns the number of workers in the partition.
func (f *Fragment) NumWorkers() int { return f.numWorkers }

// NumVertices returns the global vertex count.
func (f *Fragment) NumVertices() int { return f.numVertices }

// LocalCount returns the number of vertices this fragment owns.
func (f *Fragment) LocalCount() int { return len(f.globals) }

// LocalCountOf returns the number of vertices worker w owns — fragment
// consumers size their dense per-destination staging without the
// partition.
func (f *Fragment) LocalCountOf(w int) int { return f.counts[w] }

// GlobalID returns the global id of local vertex li.
func (f *Fragment) GlobalID(li int) graph.VertexID { return f.globals[li] }

// OutDegree returns the out-degree of local vertex li.
func (f *Fragment) OutDegree(li int) int {
	return int(f.offsets[li+1] - f.offsets[li])
}

// Neighbors returns the pre-resolved addresses of local vertex li's
// out-neighbors. The slice aliases the fragment and must not be
// modified.
func (f *Fragment) Neighbors(li int) []Addr {
	return f.adj[f.offsets[li]:f.offsets[li+1]]
}

// Adj returns the fragment's whole packed adjacency array (all local
// vertices' neighbors concatenated in local-index order; vertex li owns
// the range summing the degrees before it). It aliases the fragment
// and must not be modified — consumers like the Propagation channel
// adopt it zero-copy.
func (f *Fragment) Adj() []Addr { return f.adj }

// AllWeights returns the weights parallel to Adj (nil if unweighted).
// It aliases the fragment and must not be modified.
func (f *Fragment) AllWeights() []int32 { return f.weights }

// NeighborWeights returns the weights parallel to Neighbors(li). It
// panics if the source graph was unweighted.
func (f *Fragment) NeighborWeights(li int) []int32 {
	if f.weights == nil {
		panic("frag: unweighted fragment")
	}
	return f.weights[f.offsets[li]:f.offsets[li+1]]
}

// Weighted reports whether edge weights are present.
func (f *Fragment) Weighted() bool { return f.weights != nil }

// NumEdges returns the number of edges stored in this fragment.
func (f *Fragment) NumEdges() int { return len(f.adj) }

// Fragments bundles the per-worker fragments of one (graph, partition)
// pair. Immutable after Build (the lazily derived transpose and the
// per-fragment scatter plans are each built exactly once under their
// own sync.Once).
type Fragments struct {
	Part  *partition.Partition
	frags []*Fragment

	// DeriveHook, if set, is called with the byte size of any lazily
	// derived structure (the transpose, a fragment's scatter or push plan) when
	// it is built — the catalog charges those bytes to its LRU budget.
	// It may be called from several workers' goroutines at once.
	DeriveHook func(bytes int64)

	revOnce sync.Once
	rev     *Fragments
}

// Frag returns worker w's fragment.
func (fs *Fragments) Frag(w int) *Fragment { return fs.frags[w] }

// NumWorkers returns the worker count.
func (fs *Fragments) NumWorkers() int { return len(fs.frags) }

// Bytes approximates the resident size of all fragments (offsets, packed
// adjacency, weights; the globals slices alias the partition and are not
// counted twice).
func (fs *Fragments) Bytes() int64 {
	var b int64
	for _, f := range fs.frags {
		b += int64(len(f.offsets))*8 + int64(len(f.adj))*8 + int64(len(f.weights))*4
		b += int64(len(f.counts)) * 8
	}
	return b
}

// Reverse returns the fragments of the transpose graph under the same
// partition, derived once from the packed forward adjacency — no global
// reverse graph is ever materialized — and cached on the receiver, so
// SCC's backward propagation shares one transpose across all runs of a
// cached fragment set. Weights are carried over.
func (fs *Fragments) Reverse() *Fragments {
	fs.revOnce.Do(func() {
		m := len(fs.frags)
		rev := &Fragments{Part: fs.Part, frags: make([]*Fragment, m), DeriveHook: fs.DeriveHook}
		weighted := false
		for w, f := range fs.frags {
			rev.frags[w] = &Fragment{
				worker:      w,
				numWorkers:  m,
				numVertices: f.numVertices,
				offsets:     make([]uint64, f.LocalCount()+1),
				globals:     f.globals,
				counts:      f.counts,
				set:         rev,
			}
			weighted = weighted || f.weights != nil
		}
		// in-degree count, prefix sum, then one fill pass per edge
		for _, f := range fs.frags {
			for _, a := range f.adj {
				rev.frags[a.Worker()].offsets[a.Local()+1]++
			}
		}
		cursors := make([][]uint64, m)
		for w, rf := range rev.frags {
			for i := 1; i < len(rf.offsets); i++ {
				rf.offsets[i] += rf.offsets[i-1]
			}
			rf.adj = make([]Addr, rf.offsets[len(rf.offsets)-1])
			if weighted {
				rf.weights = make([]int32, len(rf.adj))
			}
			cur := make([]uint64, rf.LocalCount())
			copy(cur, rf.offsets[:rf.LocalCount()])
			cursors[w] = cur
		}
		for w, f := range fs.frags {
			for li := 0; li < f.LocalCount(); li++ {
				src := Pack(w, uint32(li))
				var ws []int32
				if f.weights != nil {
					ws = f.NeighborWeights(li)
				}
				for i, a := range f.Neighbors(li) {
					rf := rev.frags[a.Worker()]
					p := cursors[a.Worker()][a.Local()]
					cursors[a.Worker()][a.Local()]++
					rf.adj[p] = src
					if ws != nil {
						rf.weights[p] = ws[i]
					}
				}
			}
		}
		fs.rev = rev
		if fs.DeriveHook != nil {
			fs.DeriveHook(rev.Bytes())
		}
	})
	return fs.rev
}

// Build constructs the per-worker fragments of g under p. The global
// address table is resolved once (one Owner/LocalIndex pair per vertex),
// then the per-worker CSRs are filled in parallel, one goroutine per
// worker — load time is the only place the global graph and partition
// are consulted.
func Build(g *graph.Graph, p *partition.Partition) *Fragments {
	n := g.NumVertices()
	m := p.NumWorkers()

	// Pre-resolve every vertex's packed address once.
	addrOf := make([]Addr, n)
	for v := 0; v < n; v++ {
		addrOf[v] = Of(p, graph.VertexID(v))
	}
	counts := make([]int, m)
	for w := 0; w < m; w++ {
		counts[w] = p.LocalCount(w)
	}

	fs := &Fragments{Part: p, frags: make([]*Fragment, m)}
	var wg sync.WaitGroup
	for w := 0; w < m; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			locals := p.Locals(w)
			f := &Fragment{
				worker:      w,
				numWorkers:  m,
				numVertices: n,
				offsets:     make([]uint64, len(locals)+1),
				globals:     locals,
				counts:      counts,
				set:         fs,
			}
			var edges uint64
			for li, id := range locals {
				edges += uint64(g.OutDegree(id))
				f.offsets[li+1] = edges
			}
			f.adj = make([]Addr, edges)
			if g.Weighted() {
				f.weights = make([]int32, edges)
			}
			for li, id := range locals {
				base := f.offsets[li]
				nbrs := g.Neighbors(id)
				for i, v := range nbrs {
					f.adj[base+uint64(i)] = addrOf[v]
				}
				if f.weights != nil {
					copy(f.weights[base:base+uint64(len(nbrs))], g.NeighborWeights(id))
				}
			}
			fs.frags[w] = f
		}(w)
	}
	wg.Wait()
	return fs
}
