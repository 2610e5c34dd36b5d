package channel

import (
	"fmt"
	"slices"

	"repro/internal/bsp"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/ser"
)

// Propagation is the optimized channel for propagation-based algorithms
// (paper §IV-C3, Fig. 7). Vertices register their adjacency and an
// initial value; the channel then propagates values along edges to a
// global fixpoint *within a single superstep*, using as many exchange
// rounds as needed: each worker propagates over its local subgraph to
// quiescence, ships the updates for remote vertices, applies incoming
// remote updates, and repeats. This is the simplified GAS model combined
// with block-level computation that the paper credits for the
// convergence speedup of WCC and Min-Label SCC (Tables V and VII) —
// without requiring the user to write a Blogel-style block program.
//
// The combiner h must be commutative, associative and idempotent, as in
// the paper's model: the new vertex value is h(old, incoming), and
// propagation stops at vertices whose value did not change.
//
// Weighted edges are supported through an optional edge transform
// f(value, weight) applied before combining (the full model of Fig. 7;
// the paper's Table II shows the simplified unweighted API).
//
// The traversal runs on a frag.PushPlan — the fragment's cached one
// (UseFragment) or one the same builder makes of the AddAddr
// registrations — and on one table of values indexed by the plan's
// targets: the local vertices first, then one entry per distinct remote
// neighbour (slot). A round's local traversal has two forms.
//
// The component round is the block-level one. A plan from an unweighted
// edge set whose local part is symmetric (an undirected graph, under any
// placement) carries its local components — Blogel's blocks — and with
// an idempotent combiner and no transform, every member of a component
// ends the round at one value: the fold of the component's seeds, the
// vertices whose value was set or moved since the last round. So the
// round folds the seeds per component and settles each component at
// once: every member takes the fold, the members whose value moved are
// woken, and the fold is staged once on each slot the component reaches
// (frag.PushPlan's component → slot table). It is exact only when no
// member outside the seeds holds a value the fold would not move — such
// a member stops a walk without passing its own value on — so a
// component with one, which only a SetValue above the rest of its
// component leaves behind, goes through the row walk instead. The Combiner's spread kernel runs the
// round; Min brings one.
//
// The row walk is the label-correcting worklist over every row entry,
// and the only form for a directed plan (Min-Label SCC), a weighted one
// (SSSP) and a combiner without a spread kernel (CombinerFunc). Pushing a
// vertex's value is the Combiner's relax loop over the vertex's row,
// applying a received frame is its absorb loop; a weighted push
// transforms the row's values first and is an absorb as well. Neither
// loop decodes an address, branches on an owner or, with Min, calls a
// function per edge. A directed plan could be condensed into its local
// strongly connected components the same way, but its components are
// not the blocks a round settles in one step: values flow between them
// in one direction only, a topological pass per round.
//
// A slot keeps the last value staged for its neighbour until the
// superstep ends, and that is a send filter: an update m with
// h(slot, m) == slot is not staged again. It cannot be missed. The
// neighbour has combined every value this slot shipped earlier in the
// superstep, so its value r satisfies h(r, slot) == r, and then
// h(r, m) == h(h(r, slot), m) == h(r, h(slot, m)) == h(r, slot) == r:
// the update would not have changed it. That holds only while the
// neighbour's value moves by h alone, which is the case from one
// compute phase to the next — SetValue, the one thing that can raise a
// value, runs in compute — so AfterCompute forgets every slot. Values,
// rounds and supersteps are those of a channel that ships every staged
// update; frames can only lose pairs, and the two forms of the round
// stage the same slots with the same values, in another order.
//
// Wire format: an update frame (writeUpdates) behind a uvarint count,
// the slots in the order they were first staged.
type Propagation[M comparable] struct {
	w         *engine.Worker
	codec     ser.Codec[M]
	combine   Combiner[M]               // Initialize fills in missing kernels
	transform func(m M, weight int32) M // nil for unweighted

	// The topology (pushState.plan) is the fragment's plan (adopted) or
	// own, which builder makes of the registrations in reg when the
	// registering superstep ends. reg outlives the build — a checkpoint
	// saves a registered topology as its registrations — and Reset
	// empties it.
	adopted bool
	reg     edgeReg
	regW    []int32 // weights parallel to reg; nil without a transform
	own     frag.PushPlan
	builder frag.PushBuilder

	pushState[M]
	head int // FIFO cursor into queue

	// frame holds one frame's indices and values between the codec and
	// the kernels, on either side, and its vals a weighted row's
	// transformed values; setPlan sizes both for the plan.
	frame updates[M]

	propagatedThisRound bool
	finalEpoch          int32 // superstep whose propagation has converged

	// blockCentric restricts the channel to one exchange round per
	// superstep. Pending work carries over to the next superstep's local
	// traversal, which makes the channel behave like a Blogel block
	// program: one cross-worker hop per superstep, block-local
	// propagation in between. Used by the Blogel baseline of Table V.
	blockCentric bool
}

// pushState is what the Combiner's relax and absorb loops run on: the
// value table of a frag.PushPlan's targets and the two kinds of work
// list a moved value lands on.
type pushState[M any] struct {
	// val[t] and st[t] describe target t: a local vertex below locals, a
	// slot from there on. A slot's value is the send filter.
	val    []M
	st     []uint8
	locals uint32
	// queue holds the local vertices whose value is yet to be pushed
	// along their row, FIFO.
	queue []uint32
	// out[d] holds the slots staged for worker d's next frame, in
	// first-staged order.
	out [][]uint32
	// plan is the topology, nil until edges are adopted or registered.
	plan *frag.PushPlan
	// core wakes the vertices whose value a kernel moved.
	core *bsp.Core

	// The component round's state, sized by setPlan for a plan with
	// components. For component k, fold[k] folds the values of its
	// seeds[k] seeds this round, and while cst[k]&cEven is set every
	// member that is no seed holds even[k]. dirty lists the components
	// with seeds, in first-seeded order.
	fold, even []M
	seeds      []uint32
	cst        []uint8
	dirty      []uint32

	work propWork
}

// propWork counts the traversal work of a Propagation: the row entries
// the row walk visits and the component-slot entries the component round
// visits, and the member values the component round settles.
type propWork struct{ rows, slots, members int }

const (
	cEven   = 1 << iota // every member that is no seed holds even[k]
	cFailed             // the component goes through the row walk this round
)

const (
	pvHas    = 1 << iota // the target holds a value
	pvListed             // the vertex is in queue, the slot in out
	pvWake               // the channel moved the vertex's value: it computes next superstep
)

// moved records that target t's value was just stored by a kernel.
func (s *pushState[M]) moved(t uint32) {
	was := s.st[t]
	s.st[t] = pvHas | pvListed | pvWake
	if was&pvListed != 0 {
		return
	}
	if t < s.locals {
		s.queue = append(s.queue, t)
	} else {
		d := s.plan.SlotOwner(t - s.locals)
		s.out[d] = append(s.out[d], t)
	}
}

// wake activates local vertex li if a kernel moved its value since it
// last computed.
func (s *pushState[M]) wake(li uint32) {
	if s.st[li]&pvWake != 0 {
		s.core.ActivateLocal(int(li))
		s.st[li] &^= pvWake
	}
}

// unsettled ends a component round: it returns the seeds of the
// components the round failed to settle, in seeds' own array, and marks
// those components uneven — the row walk they go through leaves their
// members at values of its own.
func (s *pushState[M]) unsettled(seeds []uint32, failed bool) []uint32 {
	rest := seeds[:0]
	if failed {
		for _, li := range seeds {
			if s.cst[s.plan.Comp[li]] == cFailed {
				rest = append(rest, li)
			}
		}
		for _, k := range s.dirty {
			if s.cst[k] == cFailed {
				s.cst[k] = 0
			}
		}
	}
	s.dirty = s.dirty[:0]
	return rest
}

// changed is the propagation's stopping rule: combining moved old to nv.
// A NaN is unequal to itself, so a value that was and stays NaN has not
// changed — without the second clause two NaN neighbours re-enqueue each
// other forever — while a NaN arriving at a number has (the built-in min
// lets it win), once.
func changed[M comparable](old, nv M) bool {
	return nv != old && (nv == nv || old == old)
}

// relaxWith and absorbWith are the kernels of a combiner that has none
// of its own (CombinerFunc, Sum): one call of f per edge. They live here
// rather than on the Combiner because the stopping rule needs a
// comparable M, which Combiner does not ask for.
func relaxWith[M comparable](f func(M, M) M) func(s *pushState[M], v M, row []uint32) {
	return func(s *pushState[M], v M, row []uint32) {
		for _, t := range row {
			nv := v
			if s.st[t]&pvHas != 0 {
				if nv = f(s.val[t], v); !changed(s.val[t], nv) {
					continue
				}
			}
			s.val[t] = nv
			s.moved(t)
		}
	}
}

func absorbWith[M comparable](f func(M, M) M) func(s *pushState[M], idx []uint32, in []M) {
	return func(s *pushState[M], idx []uint32, in []M) {
		for k, t := range idx {
			nv := in[k]
			if s.st[t]&pvHas != 0 {
				if nv = f(s.val[t], nv); !changed(s.val[t], nv) {
					continue
				}
			}
			s.val[t] = nv
			s.moved(t)
		}
	}
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
	c := NewPropagation(w, codec, combine)
	c.transform = f
	return c
}

// NewBlockPropagation creates a Propagation channel in block-centric
// mode: exactly one exchange round per superstep, so values advance one
// cross-worker hop per superstep with worker-local propagation in
// between — the behaviour of a Blogel block program, used as the Blogel
// baseline in the Table V reproduction.
func NewBlockPropagation[M comparable](w *engine.Worker, codec ser.Codec[M], combine Combiner[M]) *Propagation[M] {
	c := NewPropagation(w, codec, combine)
	c.blockCentric = true
	return c
}

// AddAddr registers an outgoing edge of the vertex currently computing
// by its packed destination address.
func (c *Propagation[M]) AddAddr(a frag.Addr) { c.AddWeightedAddr(a, 0) }

// AddWeightedAddr registers an outgoing weighted edge of the vertex
// currently computing by its packed destination address. The weight is
// dropped by a channel without a transform.
func (c *Propagation[M]) AddWeightedAddr(a frag.Addr, weight int32) {
	if c.plan != nil {
		panic("channel: Propagation edge registration after first propagation")
	}
	c.reg.add(c.w.CurrentLocal(), a)
	if c.transform != nil {
		c.regW = append(c.regW, weight)
	}
}

// UseFragment adopts the worker's entire pre-resolved fragment
// adjacency as the propagation topology — the whole-graph case of WCC
// and SSSP — through the fragment's cached push plan: no per-edge
// registration, and nothing to build after the first job on a cached
// view. Call it once per worker (e.g. from the first compute call of
// superstep 1) instead of AddAddr loops; a weighted transform requires a
// weighted fragment. The channel's checkpoints record the adoption, not
// the adjacency, and a restore adopts the plan of Worker.Frag again, so
// f must be that fragment.
func (c *Propagation[M]) UseFragment(f *frag.Fragment) {
	if c.plan != nil || len(c.reg.addr) > 0 {
		panic("channel: Propagation.UseFragment after edge registration")
	}
	if f != c.w.Frag() {
		panic("channel: Propagation.UseFragment takes the worker's own fragment")
	}
	if c.transform != nil && !f.Weighted() {
		panic("channel: weighted Propagation over an unweighted fragment")
	}
	c.adopted = true
	c.setPlan(f.PushPlan())
}

// setPlan installs the topology and sizes the kernel state for it:
// everything a round touches exists from here on, whether the next thing
// to run is a propagation or a checkpoint restore's values and rounds.
func (c *Propagation[M]) setPlan(p *frag.PushPlan) {
	c.plan = p
	if c.val == nil {
		return // before Initialize, which sizes for the plan it finds
	}
	n, most := int(c.locals), int(c.locals)
	for d := 0; d+1 < len(p.SlotOff); d++ {
		// d's staging list holds each of its slots at most once
		slots := int(p.SlotOff[d+1] - p.SlotOff[d])
		most = max(most, slots)
		if cap(c.out[d]) < slots {
			c.out[d] = slices.Grow(c.out[d], slots-len(c.out[d]))
		}
	}
	if c.transform != nil {
		for li := 0; li < n; li++ {
			most = max(most, int(p.Off[li+1]-p.Off[li]))
		}
	}
	if cap(c.frame.idx) < most || cap(c.frame.vals) < most {
		c.frame = updates[M]{idx: make([]uint32, most), vals: make([]M, most)}
	}
	if total := n + p.Slots(); cap(c.val) < total {
		c.val = append(make([]M, 0, total), c.val[:n]...)
		c.st = append(make([]uint8, 0, total), c.st[:n]...)
	}
	c.val, c.st = c.val[:n+p.Slots()], c.st[:n+p.Slots()]
	clear(c.st[n:])
	if k := p.Components(); p.Comp != nil && c.combine.spread != nil {
		if cap(c.cst) < k {
			c.fold, c.even = make([]M, k), make([]M, k)
			c.seeds, c.cst, c.dirty = make([]uint32, k), make([]uint8, k), make([]uint32, 0, k)
		}
		// no component is known even: values may predate the plan
		c.fold, c.even, c.seeds, c.cst = c.fold[:k], c.even[:k], c.seeds[:k], c.cst[:k]
		clear(c.seeds)
		clear(c.cst)
	}
}

// SetValue sets the current vertex's value and marks it as a propagation
// seed for this superstep (paper: set_value(m)).
func (c *Propagation[M]) SetValue(m M) {
	li := uint32(c.w.CurrentLocal())
	c.val[li] = m
	if c.st[li]&pvListed == 0 {
		c.queue = append(c.queue, li)
	}
	c.st[li] |= pvHas | pvListed
}

// Value returns local vertex li's converged value after the propagation
// of the previous superstep (paper: get_value()).
func (c *Propagation[M]) Value(li int) (M, bool) {
	if c.finalEpoch != int32(c.w.Superstep()-1) {
		var zero M
		return zero, false
	}
	return c.RawValue(li)
}

// RawValue returns local vertex li's current value regardless of
// convergence state. Block-centric users (and post-run collection) read
// values through this accessor because the single-superstep convergence
// contract of Value does not apply to them.
func (c *Propagation[M]) RawValue(li int) (M, bool) {
	if c.st[li]&pvHas == 0 {
		var zero M
		return zero, false
	}
	return c.val[li], true
}

// Initialize implements engine.Channel.
func (c *Propagation[M]) Initialize() {
	if c.combine.relax == nil {
		c.combine.relax, c.combine.absorb = relaxWith(c.combine.Combine), absorbWith(c.combine.Combine)
	}
	n := c.w.LocalCount()
	c.locals = uint32(n)
	c.val = make([]M, n)
	c.st = make([]uint8, n)
	c.queue = make([]uint32, 0, n)
	c.out = make([][]uint32, c.w.NumWorkers())
	c.core = &c.w.Core
	c.finalEpoch = -1
	if c.plan != nil {
		c.setPlan(c.plan)
	}
}

// buildPlan turns the registrations into the channel's own plan.
func (c *Propagation[M]) buildPlan() {
	c.builder.Build(&c.own, c.w.WorkerID(), c.w.Part(), c.reg.src, c.reg.addr, c.regW)
	c.setPlan(&c.own)
}

// AfterCompute implements engine.Channel: the registering superstep's
// end builds the plan, and every superstep's end forgets the send
// filter — compute may have raised values the slots' say-so no longer
// covers.
func (c *Propagation[M]) AfterCompute() {
	if c.plan == nil && len(c.reg.addr) > 0 {
		c.buildPlan()
	}
	clear(c.st[c.locals:])
	c.propagatedThisRound = false
}

// pop takes the next vertex off the queue, waking it if a kernel moved
// its value since it last computed.
func (c *Propagation[M]) pop() (li uint32, ok bool) {
	if c.head == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
		return 0, false
	}
	li = c.queue[c.head]
	c.head++
	if c.head > 1024 && c.head*2 >= len(c.queue) {
		n := copy(c.queue, c.queue[c.head:])
		c.queue, c.head = c.queue[:n], 0
	}
	c.wake(li)
	c.st[li] = pvHas
	return li, true
}

// propagateLocal runs the round's local traversal of Fig. 7: the
// component round over the seeds when the plan and the combiner allow
// it, then the row walk over what is left in the queue, pushing values
// along local edges directly and staging remote updates. The walk is
// FIFO: a LIFO stack is dramatically slower here — label-correcting with
// a stack revisits vertices pathologically often on low-diameter graphs.
func (c *Propagation[M]) propagateLocal() {
	s, p := &c.pushState, c.plan
	switch {
	case p == nil: // no edges here: values stay where they are
		for _, ok := c.pop(); ok; _, ok = c.pop() {
		}
	case c.transform == nil:
		if p.Comp != nil && c.combine.spread != nil {
			// the seeds of the components it could not settle, moved to
			// the front: the queue keeps its array
			c.queue = append(c.queue[:0], c.combine.spread(s, c.queue[c.head:])...)
			c.head = 0
		}
		relax := c.combine.relax
		for li, ok := c.pop(); ok; li, ok = c.pop() {
			row := p.Row[p.Off[li]:p.Off[li+1]]
			c.work.rows += len(row)
			relax(s, c.val[li], row)
		}
	default:
		absorb := c.combine.absorb
		for li, ok := c.pop(); ok; li, ok = c.pop() {
			v, lo, hi := c.val[li], p.Off[li], p.Off[li+1]
			c.work.rows += int(hi - lo)
			vals := c.frame.vals[:hi-lo]
			for i, wt := range p.W[lo:hi] {
				vals[i] = c.transform(v, wt)
			}
			absorb(s, p.Row[lo:hi], vals)
		}
	}
}

// Serialize implements engine.Channel: on the first call of each round,
// run local propagation to quiescence, then ship the updates staged for
// dst. A shipped slot keeps its value, as the filter.
func (c *Propagation[M]) Serialize(dst int, buf *ser.Buffer) {
	if !c.propagatedThisRound {
		c.propagateLocal()
		c.propagatedThisRound = true
	}
	staged := c.out[dst]
	if len(staged) == 0 {
		return
	}
	idx, vals := c.frame.idx[:len(staged)], c.frame.vals[:len(staged)]
	for k, t := range staged {
		idx[k], vals[k] = c.plan.SlotLocal[t-c.locals], c.val[t]
		c.st[t] = pvHas
	}
	buf.WriteUvarint(uint64(len(staged)))
	writeUpdates(buf, c.codec, idx, vals)
	c.out[dst] = staged[:0]
}

// Deserialize implements engine.Channel: apply a checked update frame,
// which may refill the queue. A peer ships each slot once a frame, so
// more updates than this worker has vertices are rejected too. A worker
// without edges still owns destinations and applies frames as usual.
func (c *Propagation[M]) Deserialize(src int, buf *ser.Buffer) {
	n := buf.ReadUvarint()
	if n > uint64(c.locals) {
		panic(fmt.Sprintf("channel: Propagation: frame of %d updates in %d bytes, worker hosts %d vertices", n, buf.Remaining(), c.locals))
	}
	c.frame.reset()
	idx, vals := c.frame.readLast(buf, c.codec, int(n), c.locals)
	c.combine.absorb(&c.pushState, idx, vals)
}

// Again implements engine.Channel: another round is needed while this
// worker has pending local work (which will also produce new remote
// updates). When every worker's queue is empty the engine ends the
// rounds and the propagation has globally converged. In block-centric
// mode the channel never asks for extra rounds; pending work waits for
// the next superstep, but its vertices are woken now — the job goes on
// while any is awake.
func (c *Propagation[M]) Again() bool {
	pending := c.queue[c.head:]
	if c.blockCentric {
		for _, li := range pending {
			c.wake(li)
		}
		return false
	}
	if len(pending) > 0 {
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
	c.plan, c.adopted = nil, false
	c.reg.src, c.reg.addr, c.regW = c.reg.src[:0], c.reg.addr[:0], c.regW[:0]
	c.val, c.st = c.val[:c.locals], c.st[:c.locals]
	clear(c.st)
	c.queue, c.head = c.queue[:0], 0
	c.finalEpoch = -1
}
