// Package partition assigns vertices to workers. The paper evaluates two
// placements: the default hash placement and a METIS locality placement
// (the "(P)" datasets). We provide a hash partitioner and a greedy
// BFS-based locality partitioner that stands in for METIS: what the
// propagation-channel and Blogel experiments need is only "a partition
// whose edge-cut is much smaller than hash placement", which the greedy
// partitioner delivers.
package partition

import (
	"fmt"

	"repro/internal/graph"
)

// Placement names accepted by ByName (and by the catalog spec and the
// /v1 job API).
const (
	PlacementHash   = "hash"
	PlacementGreedy = "greedy"
)

// MaxWorkers is the largest representable worker count: owner vectors
// store worker ids as uint16. Greedy additionally reserves the top value
// as its unassigned sentinel, so it accepts at most MaxWorkers-1.
const MaxWorkers = 1<<16 - 1

// checkWorkers validates a worker count against the uint16 owner
// representation. Silent overflow here used to corrupt owner vectors
// (worker 65536 wrapped to 0); now it is an error at construction.
func checkWorkers(numWorkers, max int) error {
	if numWorkers < 1 || numWorkers > max {
		return fmt.Errorf("partition: numWorkers=%d out of range 1..%d", numWorkers, max)
	}
	return nil
}

// Partition maps every vertex to a worker and a dense per-worker local
// index, and back. All engines in this reproduction share it.
type Partition struct {
	numWorkers int
	owner      []uint16           // vertex -> worker
	local      []uint32           // vertex -> local index on its worker
	globals    [][]graph.VertexID // worker -> local index -> vertex
}

// NumWorkers returns the number of workers.
func (p *Partition) NumWorkers() int { return p.numWorkers }

// NumVertices returns the total vertex count.
func (p *Partition) NumVertices() int { return len(p.owner) }

// Owner returns the worker that owns vertex v.
func (p *Partition) Owner(v graph.VertexID) int { return int(p.owner[v]) }

// LocalIndex returns v's dense index on its owning worker.
func (p *Partition) LocalIndex(v graph.VertexID) int { return int(p.local[v]) }

// LocalCount returns the number of vertices on worker w.
func (p *Partition) LocalCount(w int) int { return len(p.globals[w]) }

// GlobalID returns the vertex at local index i on worker w.
func (p *Partition) GlobalID(w, i int) graph.VertexID { return p.globals[w][i] }

// Locals returns worker w's vertex list (do not modify).
func (p *Partition) Locals(w int) []graph.VertexID { return p.globals[w] }

// Owners returns the raw owner vector (do not modify). Snapshots embed
// it so a daemon restart skips re-partitioning.
func (p *Partition) Owners() []uint16 { return p.owner }

// fromOwner builds the index structures from a validated owner vector.
func fromOwner(numWorkers int, owner []uint16) *Partition {
	p := &Partition{
		numWorkers: numWorkers,
		owner:      owner,
		local:      make([]uint32, len(owner)),
		globals:    make([][]graph.VertexID, numWorkers),
	}
	for v, w := range owner {
		p.local[v] = uint32(len(p.globals[w]))
		p.globals[w] = append(p.globals[w], graph.VertexID(v))
	}
	return p
}

// FromOwners builds a partition from an explicit owner vector (e.g. one
// embedded in a binary snapshot). Every entry must name a worker in
// [0, numWorkers). The vector is retained; do not modify it afterwards.
func FromOwners(numWorkers int, owner []uint16) (*Partition, error) {
	if err := checkWorkers(numWorkers, MaxWorkers); err != nil {
		return nil, err
	}
	for v, w := range owner {
		if int(w) >= numWorkers {
			return nil, fmt.Errorf("partition: vertex %d assigned to worker %d (numWorkers=%d)", v, w, numWorkers)
		}
	}
	return fromOwner(numWorkers, owner), nil
}

// Hash assigns vertex v to worker v mod numWorkers — the default Pregel
// placement ("vertices are randomly assigned to workers" in §V-B2; with
// generator-assigned dense IDs, modulo is an adequate randomization).
func Hash(numVertices, numWorkers int) (*Partition, error) {
	if err := checkWorkers(numWorkers, MaxWorkers); err != nil {
		return nil, err
	}
	owner := make([]uint16, numVertices)
	for v := range owner {
		owner[v] = uint16(v % numWorkers)
	}
	return fromOwner(numWorkers, owner), nil
}

// MustHash is Hash for callers with a statically valid worker count
// (tests, benchmarks, examples); it panics on error.
func MustHash(numVertices, numWorkers int) *Partition {
	p, err := Hash(numVertices, numWorkers)
	if err != nil {
		panic(err)
	}
	return p
}

// Greedy builds a locality-preserving partition of g into numWorkers
// parts of (near-)equal size using repeated BFS region growing: start a
// BFS from an unassigned vertex, assign visited vertices to the current
// part until it reaches n/numWorkers vertices, then open the next part.
// This is the METIS stand-in for the paper's "(P)" partitioned datasets.
// numWorkers must be below MaxWorkers: the top uint16 value is Greedy's
// unassigned sentinel.
func Greedy(g *graph.Graph, numWorkers int) (*Partition, error) {
	if err := checkWorkers(numWorkers, MaxWorkers-1); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	owner := make([]uint16, n)
	for i := range owner {
		owner[i] = uint16(numWorkers) // sentinel: unassigned
	}
	capacity := (n + numWorkers - 1) / numWorkers
	part, filled := 0, 0
	queue := make([]graph.VertexID, 0, 1024)
	next := 0 // scan pointer for BFS seeds
	assign := func(v graph.VertexID) bool {
		if owner[v] != uint16(numWorkers) {
			return false
		}
		owner[v] = uint16(part)
		filled++
		if filled >= capacity && part < numWorkers-1 {
			part++
			filled = 0
		}
		return true
	}
	for {
		for next < n && owner[next] != uint16(numWorkers) {
			next++
		}
		if next >= n {
			break
		}
		seed := graph.VertexID(next)
		assign(seed)
		queue = append(queue[:0], seed)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if assign(v) {
					queue = append(queue, v)
				}
			}
		}
	}
	return fromOwner(numWorkers, owner), nil
}

// MustGreedy is Greedy with a panic on error.
func MustGreedy(g *graph.Graph, numWorkers int) *Partition {
	p, err := Greedy(g, numWorkers)
	if err != nil {
		panic(err)
	}
	return p
}

// ByName builds the named placement of g: PlacementHash or
// PlacementGreedy ("" defaults to hash).
func ByName(name string, g *graph.Graph, numWorkers int) (*Partition, error) {
	switch name {
	case "", PlacementHash:
		return Hash(g.NumVertices(), numWorkers)
	case PlacementGreedy:
		return Greedy(g, numWorkers)
	}
	return nil, fmt.Errorf("partition: unknown placement %q (want %s or %s)", name, PlacementHash, PlacementGreedy)
}

// EdgeCut returns the fraction of directed edges of g whose endpoints
// are on different workers under p. Used to validate that Greedy yields
// much better locality than Hash, and reported per job by graphd.
func EdgeCut(g *graph.Graph, p *Partition) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	cut := 0
	for u := 0; u < g.NumVertices(); u++ {
		ou := p.Owner(graph.VertexID(u))
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			if p.Owner(v) != ou {
				cut++
			}
		}
	}
	return float64(cut) / float64(g.NumEdges())
}
