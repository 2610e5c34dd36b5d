package channel

import (
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/ser"
)

// Propagation is the optimized channel for propagation-based algorithms
// (paper §IV-C3, Fig. 7). Vertices register their adjacency and an
// initial value; the channel then propagates values along edges to a
// global fixpoint *within a single superstep*, using as many exchange
// rounds as needed: each worker runs a BFS-like traversal over its local
// subgraph to quiescence, ships the updates for remote vertices, applies
// incoming remote updates, and repeats. This is the simplified GAS model
// combined with block-level computation that the paper credits for the
// convergence speedup of WCC and Min-Label SCC (Tables V and VII) —
// without requiring the user to write a Blogel-style block program.
//
// The combiner h must be commutative and idempotent-friendly in the
// sense of the paper's model: the new vertex value is h(old, incoming),
// and propagation stops at vertices whose value did not change.
//
// Weighted edges are supported through an optional edge transform
// f(value, weight) applied before combining (the full model of Fig. 7;
// the paper's Table II shows the simplified unweighted API).
type Propagation[M comparable] struct {
	w         *engine.Worker
	codec     ser.Codec[M]
	combine   Combiner[M]
	transform func(m M, weight int32) M // nil for unweighted

	// local adjacency, built from AddEdge/AddAddr during superstep 1 or
	// adopted wholesale from the worker's fragment (UseFragment): a CSR
	// over local vertices whose entries are packed pre-resolved
	// addresses, so staging a remote update and applying an incoming one
	// are both plain array indexing — the global graph and partition are
	// never consulted.
	building []propEdge
	prepared bool
	offsets  []int32
	adj      []frag.Addr // packed (owner, local) destination addresses
	adjW     []int32     // parallel weights; nil when unweighted

	val    []M
	hasVal []bool
	queued []bool
	queue  []int32
	head   int // FIFO cursor into queue
	// staged remote updates: dense per-destination-worker slots
	remote denseOut[M]

	propagatedThisRound bool
	finalEpoch          int32 // superstep whose propagation has converged

	// blockCentric restricts the channel to one exchange round per
	// superstep. Pending work carries over to the next superstep's local
	// traversal, which makes the channel behave like a Blogel block
	// program: one cross-worker hop per superstep, block-local
	// propagation in between. Used by the Blogel baseline of Table V.
	blockCentric bool
}

type propEdge struct {
	addr frag.Addr // pre-resolved (owner, local) destination address
	src  int32
	w    int32
}

// NewPropagation creates and registers an unweighted Propagation channel.
func NewPropagation[M comparable](w *engine.Worker, codec ser.Codec[M], combine Combiner[M]) *Propagation[M] {
	c := &Propagation[M]{w: w, codec: codec, combine: combine}
	w.Register(c)
	return c
}

// NewWeightedPropagation creates a Propagation channel whose values are
// transformed by f(value, edgeWeight) when crossing an edge (e.g.
// distance + weight for SSSP-style propagation).
func NewWeightedPropagation[M comparable](w *engine.Worker, codec ser.Codec[M], combine Combiner[M], f func(m M, weight int32) M) *Propagation[M] {
	c := &Propagation[M]{w: w, codec: codec, combine: combine, transform: f}
	w.Register(c)
	return c
}

// NewBlockPropagation creates a Propagation channel in block-centric
// mode: exactly one exchange round per superstep, so values advance one
// cross-worker hop per superstep with worker-local propagation in
// between — the behaviour of a Blogel block program, used as the Blogel
// baseline in the Table V reproduction.
func NewBlockPropagation[M comparable](w *engine.Worker, codec ser.Codec[M], combine Combiner[M]) *Propagation[M] {
	c := &Propagation[M]{w: w, codec: codec, combine: combine, blockCentric: true}
	w.Register(c)
	return c
}

// AddEdge registers an outgoing edge of the vertex currently computing.
// Transitional id-based entry point; AddAddr takes the pre-resolved
// address directly.
func (c *Propagation[M]) AddEdge(dst graph.VertexID) { c.AddWeightedEdge(dst, 0) }

// AddWeightedEdge registers an outgoing weighted edge of the vertex
// currently computing.
func (c *Propagation[M]) AddWeightedEdge(dst graph.VertexID, weight int32) {
	c.AddWeightedAddr(c.w.Addr(dst), weight)
}

// AddAddr registers an outgoing edge of the vertex currently computing
// by its packed destination address.
func (c *Propagation[M]) AddAddr(a frag.Addr) { c.AddWeightedAddr(a, 0) }

// UseFragment adopts the worker's entire pre-resolved fragment
// adjacency as the propagation topology — the whole-graph case of WCC
// and SSSP — skipping per-edge registration and its staging
// allocations entirely. Call it once per worker (e.g. from the first
// compute call of superstep 1) instead of AddAddr loops; a weighted
// transform requires a weighted fragment.
func (c *Propagation[M]) UseFragment(f *frag.Fragment) {
	if c.prepared {
		panic("channel: Propagation.UseFragment after first propagation")
	}
	n := f.LocalCount()
	c.offsets = make([]int32, n+1)
	edges := int32(0)
	for li := 0; li < n; li++ {
		edges += int32(f.OutDegree(li))
		c.offsets[li+1] = edges
	}
	c.adj = f.Adj()         // zero-copy: packed addresses are the wire layout
	c.adjW = f.AllWeights() // nil when unweighted
	c.building = nil
	c.prepared = true
}

// AddWeightedAddr registers an outgoing weighted edge of the vertex
// currently computing by its packed destination address.
func (c *Propagation[M]) AddWeightedAddr(a frag.Addr, weight int32) {
	if c.prepared {
		panic("channel: Propagation edge registration after first propagation")
	}
	c.building = append(c.building, propEdge{src: int32(c.w.CurrentLocal()), addr: a, w: weight})
}

// SetValue sets the current vertex's value and marks it as a propagation
// seed for this superstep (paper: set_value(m)).
func (c *Propagation[M]) SetValue(m M) {
	li := c.w.CurrentLocal()
	c.val[li] = m
	c.hasVal[li] = true
	if !c.queued[li] {
		c.queued[li] = true
		c.queue = append(c.queue, int32(li))
	}
}

// Value returns local vertex li's converged value after the propagation
// of the previous superstep (paper: get_value()).
func (c *Propagation[M]) Value(li int) (M, bool) {
	if c.finalEpoch != int32(c.w.Superstep()-1) || !c.hasVal[li] {
		var zero M
		return zero, false
	}
	return c.val[li], true
}

// Initialize implements engine.Channel.
func (c *Propagation[M]) Initialize() {
	n := c.w.LocalCount()
	c.val = make([]M, n)
	c.hasVal = make([]bool, n)
	c.queued = make([]bool, n)
	c.remote = newDenseOut[M](c.w)
	c.finalEpoch = -1
}

func (c *Propagation[M]) prepare() {
	n := c.w.LocalCount()
	c.offsets = make([]int32, n+1)
	for _, e := range c.building {
		c.offsets[e.src+1]++
	}
	for i := 1; i <= n; i++ {
		c.offsets[i] += c.offsets[i-1]
	}
	cursor := make([]int32, n)
	copy(cursor, c.offsets[:n])
	c.adj = make([]frag.Addr, len(c.building))
	c.adjW = make([]int32, len(c.building))
	for _, e := range c.building {
		p := cursor[e.src]
		cursor[e.src]++
		c.adj[p] = e.addr
		c.adjW[p] = e.w
	}
	c.building = nil
	c.prepared = true
}

// AfterCompute implements engine.Channel.
func (c *Propagation[M]) AfterCompute() {
	if !c.prepared && len(c.building) > 0 {
		c.prepare()
	}
	c.propagatedThisRound = false
}

// apply combines an incoming value into dst vertex li; if the value
// changed, li is (re)enqueued and activated for the next superstep.
func (c *Propagation[M]) apply(li int32, m M) {
	changed := false
	if !c.hasVal[li] {
		c.val[li] = m
		c.hasVal[li] = true
		changed = true
	} else {
		nv := c.combine.Combine(c.val[li], m)
		if nv != c.val[li] {
			c.val[li] = nv
			changed = true
		}
	}
	if changed {
		c.w.ActivateLocal(int(li))
		if !c.queued[li] {
			c.queued[li] = true
			c.queue = append(c.queue, li)
		}
	}
}

// propagateLocal drains the queue, pushing values along local edges
// directly and staging remote updates — the worker-local BFS-like
// traversal of Fig. 7.
func (c *Propagation[M]) propagateLocal() {
	if !c.prepared {
		c.queue = c.queue[:0]
		c.head = 0
		return
	}
	me := c.w.WorkerID()
	// FIFO order: the BFS-like traversal of Fig. 7. (A LIFO stack is
	// dramatically slower here — label-correcting with a stack revisits
	// vertices pathologically often on low-diameter graphs.)
	for c.head < len(c.queue) {
		li := c.queue[c.head]
		c.head++
		if c.head > 1024 && c.head*2 >= len(c.queue) {
			n := copy(c.queue, c.queue[c.head:])
			c.queue = c.queue[:n]
			c.head = 0
		}
		c.queued[li] = false
		v := c.val[li]
		for p := c.offsets[li]; p < c.offsets[li+1]; p++ {
			a := c.adj[p]
			m := v
			if c.transform != nil {
				m = c.transform(v, c.adjW[p])
			}
			if a.Worker() == me {
				c.apply(int32(a.Local()), m)
			} else {
				c.remote.stage(a.Worker(), a.Local(), m, c.combine.Combine)
			}
		}
	}
}

// Serialize implements engine.Channel: on the first call of each round,
// run local propagation to quiescence, then ship the staged remote
// updates for dst.
func (c *Propagation[M]) Serialize(dst int, buf *ser.Buffer) {
	if !c.propagatedThisRound {
		c.propagateLocal()
		c.propagatedThisRound = true
	}
	c.remote.drain(dst, buf, c.codec)
}

// Deserialize implements engine.Channel: apply remote updates, which may
// refill the queue.
func (c *Propagation[M]) Deserialize(src int, buf *ser.Buffer) {
	n := int(buf.ReadUvarint())
	for i := 0; i < n; i++ {
		li := int32(buf.ReadUvarint())
		m := c.codec.Decode(buf)
		c.apply(li, m)
	}
}

// Again implements engine.Channel: another round is needed while this
// worker has pending local work (which will also produce new remote
// updates). When every worker's queue is empty the engine ends the
// rounds and the propagation has globally converged. In block-centric
// mode the channel never asks for extra rounds; pending work waits for
// the next superstep.
func (c *Propagation[M]) Again() bool {
	if c.blockCentric {
		return false
	}
	if len(c.queue) > c.head {
		c.propagatedThisRound = false
		return true
	}
	c.finalEpoch = int32(c.w.Superstep())
	return false
}

// Reset clears the channel's topology and values so it can be reused
// for a fresh propagation with a different edge set (e.g. one Min-Label
// SCC round per reuse). Reset touches only worker-local state, so
// workers need not call it in lockstep — a worker with no remaining
// vertices may skip it. It must not be called while a propagation is in
// flight (i.e. only during a compute phase).
func (c *Propagation[M]) Reset() {
	c.building = c.building[:0]
	c.prepared = false
	c.offsets = nil
	c.adj = nil
	c.adjW = nil
	for i := range c.hasVal {
		c.hasVal[i] = false
		c.queued[i] = false
	}
	c.queue = c.queue[:0]
	c.head = 0
	c.finalEpoch = -1
}

// RawValue returns local vertex li's current value regardless of
// convergence state. Block-centric users (and post-run collection) read
// values through this accessor because the single-superstep convergence
// contract of Value does not apply to them.
func (c *Propagation[M]) RawValue(li int) (M, bool) {
	if !c.hasVal[li] {
		var zero M
		return zero, false
	}
	return c.val[li], true
}
