package frag

import "repro/internal/partition"

// PushPlan is the pre-calculation of the propagation channel (paper
// §IV-C3, Fig. 7): one edge set resolved, before any value exists, into
// the places a push along each edge lands. A local vertex's row holds
// one target per edge, in adjacency order. A target below Locals is the
// local index of a neighbour this worker owns; a target at or above it
// is Locals plus a slot, and a slot stands for one distinct remote
// neighbour. So a traversal keeps the vertex values and the per-slot
// outgoing values in one table indexed by target and its inner loop is
// a load, a compare and sometimes a store per edge — no address to
// decode, no owner to branch on — and only a target whose value moved
// is looked at again to tell a vertex from a slot.
//
// Slots are dense and grouped by owner, ascending by the neighbour's
// local index on its owner, so the slots of one destination worker are
// one range and the wire index of a slot is one lookup. Immutable once
// built, except by the builder that owns it.
type PushPlan struct {
	// Locals is the number of local vertices.
	Locals uint32
	// Off[li] and Off[li+1] bound local vertex li's row. A fragment's
	// plan shares the fragment's own offsets.
	Off []uint64
	// Row is the target of every edge, row after row.
	Row []uint32
	// W holds the edge weights parallel to Row, nil for an unweighted edge
	// set. A fragment's plan shares the fragment's own weights.
	W []int32
	// SlotLocal[s] is the local index, on its owner, of slot s's vertex.
	SlotLocal []uint32
	// SlotOff[d] and SlotOff[d+1] bound the slots worker d owns; it has
	// one entry per worker plus one, and this worker's own range is empty.
	SlotOff []uint32
}

// Slots returns the number of distinct remote neighbours.
func (p *PushPlan) Slots() int { return len(p.SlotLocal) }

// SlotOwner returns the worker owning slot s: a scan of the owners'
// ranges, run once per slot and round, when a slot is first staged.
func (p *PushPlan) SlotOwner(s uint32) int {
	d := 0
	for s >= p.SlotOff[d+1] {
		d++
	}
	return d
}

// Bytes returns the resident size of what the plan holds beyond the
// edge set it was built over: Off and W of a fragment's plan are the
// fragment's.
func (p *PushPlan) Bytes() int64 {
	return 4 * int64(len(p.Row)+len(p.SlotLocal)+len(p.SlotOff))
}

// PushBuilder builds PushPlans in two passes over the edges: the first
// marks the distinct neighbours, a scan of the marks numbers the remote
// ones, and the second writes every target at its final place, so every
// array is allocated at its exact size. A builder keeps its mark table
// — one word per vertex of the graph — between builds, and Build reuses
// the arrays of the plan it is handed: a channel that registers a new
// edge set every few supersteps (Min-Label SCC) rebuilds without
// allocating.
type PushBuilder struct {
	// target[base[d]+l] is 0, then 1 for a marked neighbour l of worker d,
	// then its target; all zero again when a build returns. base has one
	// entry per worker plus one.
	target []uint32
	base   []uint32
}

// sized returns s with length n, in its own array when that is large
// enough. Never nil, so the two build paths agree on an empty array.
func sized[T any](s []T, n int) []T {
	if s != nil && cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// begin sizes the mark table on first use; a builder serves one
// partition.
func (b *PushBuilder) begin(part *partition.Partition) {
	if b.base != nil {
		return
	}
	b.base = make([]uint32, part.NumWorkers()+1)
	for d := 0; d < part.NumWorkers(); d++ {
		b.base[d+1] = b.base[d] + uint32(part.LocalCount(d))
	}
	b.target = make([]uint32, part.NumVertices())
}

// mark notes every neighbour among dst, the worker's own included: the
// passes over the edges do not branch on the owner, which on a cut graph
// is a coin toss per edge.
func (b *PushBuilder) mark(dst []Addr) {
	for _, a := range dst {
		b.target[b.base[a.Worker()]+a.Local()] = 1
	}
}

// number turns the marks into targets — a vertex of worker me is its own
// target, a marked vertex of another worker gets the next slot — and
// fills the slot tables.
func (b *PushBuilder) number(p *PushPlan, me int) {
	m := len(b.base) - 1
	slots := 0
	for _, marked := range b.target {
		slots += int(marked)
	}
	own := b.target[b.base[me]:b.base[me+1]]
	for l, marked := range own {
		slots -= int(marked)
		own[l] = uint32(l)
	}
	p.Locals = uint32(len(own))
	p.SlotOff = sized(p.SlotOff, m+1)
	p.SlotLocal = sized(p.SlotLocal, slots)
	s := uint32(0)
	for d := 0; d < m; d++ {
		p.SlotOff[d] = s
		if d == me {
			continue
		}
		marks := b.target[b.base[d]:b.base[d+1]]
		for l, marked := range marks {
			if marked != 0 {
				marks[l] = p.Locals + s
				p.SlotLocal[s] = uint32(l)
				s++
			}
		}
	}
	p.SlotOff[m] = s
}

// targetOf returns the numbered target of an edge into a.
func (b *PushBuilder) targetOf(a Addr) uint32 {
	return b.target[b.base[a.Worker()]+a.Local()]
}

// end clears the table number left behind.
func (b *PushBuilder) end(p *PushPlan, me int) {
	clear(b.target[b.base[me]:b.base[me+1]])
	for d := 0; d+1 < len(b.base); d++ {
		marks := b.target[b.base[d]:]
		for _, l := range p.SlotLocal[p.SlotOff[d]:p.SlotOff[d+1]] {
			marks[l] = 0
		}
	}
}

// Build makes p the plan of the edges worker me registered one at a
// time: edge i leaves local vertex src[i] for dst[i] with weight w[i]
// (w is nil for an unweighted edge set) under partition part. A vertex's
// row keeps its edges in registration order. The plan is the one the
// fragment path derives for the same edges; p's arrays are overwritten
// where they are large enough, so p must not be a fragment's plan.
func (b *PushBuilder) Build(p *PushPlan, me int, part *partition.Partition, src []uint32, dst []Addr, w []int32) {
	b.begin(part)
	n := part.LocalCount(me)
	// counts go two entries up, so after the prefix sum off[s+1] is s's
	// fill cursor and the fill leaves it at s's end
	off := sized(p.Off, n+2)
	clear(off)
	for _, s := range src {
		off[s+2]++
	}
	b.mark(dst)
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	b.number(p, me)
	p.Row = sized(p.Row, len(dst))
	if w != nil {
		p.W = sized(p.W, len(dst))
	} else {
		p.W = nil
	}
	for i, a := range dst {
		at := off[src[i]+1]
		off[src[i]+1]++
		p.Row[at] = b.targetOf(a)
		if w != nil {
			p.W[at] = w[i]
		}
	}
	p.Off = off[:n+1]
	b.end(p, me)
}

// buildCSR is Build over edges already grouped by source. The plan
// shares offsets and w.
func (b *PushBuilder) buildCSR(p *PushPlan, me int, part *partition.Partition, offsets []uint64, adj []Addr, w []int32) {
	b.begin(part)
	b.mark(adj)
	b.number(p, me)
	p.Off, p.W = offsets, w
	p.Row = sized(p.Row, len(adj))
	for i, a := range adj {
		p.Row[i] = b.targetOf(a)
	}
	b.end(p, me)
}

// PushPlan returns the plan of the fragment's whole adjacency, derived
// on first use and cached on the fragment like ScatterPlan: every job
// that propagates over a cached fragment set shares one plan per worker,
// and the catalog is charged its bytes through Fragments.DeriveHook.
func (f *Fragment) PushPlan() *PushPlan {
	f.pushOnce.Do(func() {
		f.push = new(PushPlan)
		new(PushBuilder).buildCSR(f.push, f.worker, f.set.Part, f.offsets, f.adj, f.weights)
		if f.set.DeriveHook != nil {
			f.set.DeriveHook(f.push.Bytes())
		}
	})
	return f.push
}
