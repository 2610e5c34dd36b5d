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
// one range and the wire index of a slot is one lookup.
//
// An unweighted edge set whose local part is symmetric — every edge
// between two local vertices has its reverse, as on an undirected view
// under any placement — also gets its local components: the connected
// pieces of the local subgraph, which Blogel calls blocks. A traversal
// with an idempotent combiner and no edge transform leaves every member
// of a component at one value, so it can keep one value per component
// and stage it once on each slot the component reaches, instead of
// walking every row (the Propagation channel's component round). A
// directed or weighted edge set has none: Comp is nil.
//
// Immutable once built, except by the builder that owns it.
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

	// Comp[li] is local vertex li's component, numbered in the order of
	// the components' smallest members; nil without components.
	Comp []uint32
	// MemberOff[k] and MemberOff[k+1] bound component k's members in
	// Member, ascending.
	MemberOff []uint32
	Member    []uint32
	// CompSlotOff[k] and CompSlotOff[k+1] bound component k's slots in
	// CompSlot: every slot its members' rows land on, once, ascending —
	// so grouped by owner like the slots themselves.
	CompSlotOff []uint32
	CompSlot    []uint32
}

// Slots returns the number of distinct remote neighbours.
func (p *PushPlan) Slots() int { return len(p.SlotLocal) }

// SlotOwner returns the worker owning slot s: a scan of the owners'
// ranges, run once per slot and round when a row walk first stages it
// (the component round follows its ascending slots instead).
func (p *PushPlan) SlotOwner(s uint32) int {
	d := 0
	for s >= p.SlotOff[d+1] {
		d++
	}
	return d
}

// Components returns the number of local components, 0 for a plan
// without them.
func (p *PushPlan) Components() int { return max(len(p.MemberOff)-1, 0) }

// Bytes returns the resident size of what the plan holds beyond the
// edge set it was built over — rows, slots and component tables: Off
// and W of a fragment's plan are the fragment's.
func (p *PushPlan) Bytes() int64 {
	return 4 * int64(len(p.Row)+len(p.SlotLocal)+len(p.SlotOff)+
		len(p.Comp)+len(p.MemberOff)+len(p.Member)+len(p.CompSlotOff)+len(p.CompSlot))
}

// PushBuilder builds PushPlans in two passes over the edges: the first
// marks the distinct neighbours, a scan of the marks numbers the remote
// ones, and the second writes every target at its final place, so every
// array is allocated at its exact size. An unweighted plan's rows are
// then transposed for the symmetry check and the component tables
// (components). A builder keeps its mark table — one word per vertex of
// the graph — and the transpose between builds, and Build reuses the
// arrays of the plan it is handed: a channel that registers a new edge
// set every few supersteps (Min-Label SCC) rebuilds its rows, slots and
// transpose without allocating.
type PushBuilder struct {
	// target[base[d]+l] is 0, then 1 for a marked neighbour l of worker d,
	// then its target; all zero again when a build returns. base has one
	// entry per worker plus one.
	target []uint32
	base   []uint32
	// scratch of the component tables: the transpose's offsets and
	// sources, a stamp per target and a cursor per component
	inOff, in, stamp, cur []uint32
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
	b.components(p)
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
	b.components(p)
}

// components fills in p's component tables, or sets them nil when p is
// weighted or its local part is not symmetric. It transposes the rows —
// every target's sources, a slot's as well as a vertex's, so no pass
// tests a target for being local, which on a cut graph is a coin toss
// per edge — and runs the rest over the transpose: the check, a
// breadth-first search over the vertices' sources, and the component →
// slot table read slot by slot.
func (b *PushBuilder) components(p *PushPlan) {
	if p.W == nil {
		b.transpose(p)
		if symmetric(p, b.inOff, b.in, b.stamp) {
			b.localComponents(p)
			b.componentSlots(p)
			return
		}
	}
	p.Comp, p.MemberOff, p.Member, p.CompSlotOff, p.CompSlot = nil, nil, nil, nil, nil
}

// transpose leaves the sources of target t in b.in[b.inOff[t]:b.inOff[t+1]],
// ascending, and b.stamp cleared over the targets.
func (b *PushBuilder) transpose(p *PushPlan) {
	all := int(p.Locals) + p.Slots()
	// counts go two entries up, as in Build
	off := sized(b.inOff, all+2)
	clear(off)
	for _, t := range p.Row {
		off[t+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	in := sized(b.in, len(p.Row))
	for u := range p.Locals {
		for _, t := range p.Row[p.Off[u]:p.Off[u+1]] {
			in[off[t+1]] = u
			off[t+1]++
		}
	}
	b.inOff, b.in, b.stamp = off, in, sized(b.stamp, all)
	clear(b.stamp)
}

// localComponents numbers p's local components breadth-first from each
// vertex no component holds yet, over the vertices' sources — the same
// edges, the part being symmetric — with the member list as the queue,
// then lists each component's members in ascending order.
func (b *PushBuilder) localComponents(p *PushPlan) {
	n, off, in := p.Locals, b.inOff, b.in
	comp, member := sized(p.Comp, int(n)), sized(p.Member, int(n))
	for li := range comp {
		comp[li] = ^uint32(0)
	}
	memberOff := append(b.cur[:0], 0)
	end := uint32(0)
	for li := range n {
		if comp[li] != ^uint32(0) {
			continue
		}
		k, start := uint32(len(memberOff)-1), end
		comp[li], member[end] = k, li
		end++
		for head := start; head < end; head++ {
			u := member[head]
			for _, v := range in[off[u]:off[u+1]] {
				if comp[v] == ^uint32(0) {
					comp[v], member[end] = k, v
					end++
				}
			}
		}
		memberOff = append(memberOff, end)
	}
	k := len(memberOff) - 1
	p.MemberOff = sized(p.MemberOff, k+1)
	copy(p.MemberOff, memberOff)
	cur := memberOff[:k] // each component's fill cursor
	for li, c := range comp {
		member[cur[c]] = uint32(li)
		cur[c]++
	}
	b.cur = memberOff
	p.Comp, p.Member = comp, member
}

// componentSlots lists, for each component, the slots its members' rows
// land on, once: slot s's sources name the components that reach it, so
// reading the slots in order leaves each component's list ascending. One
// pass over the sources keeps each slot's components, once, in place of
// its sources and counts them; a second pass over what it kept writes
// the table.
func (b *PushBuilder) componentSlots(p *PushPlan) {
	n, all, off, in := p.Locals, p.Locals+uint32(p.Slots()), b.inOff, b.in
	k := uint32(p.Components())
	slotOff := sized(p.CompSlotOff, int(k)+1)
	clear(slotOff)
	stamp := b.stamp[:k]
	clear(stamp)
	kept, lo := off[n], off[n]
	for s := range all - n {
		hi := off[n+s+1]
		for _, u := range in[lo:hi] {
			if c := p.Comp[u]; stamp[c] != s+1 {
				stamp[c] = s + 1
				slotOff[c+1]++
				in[kept] = c
				kept++
			}
		}
		off[n+s+1], lo = kept, hi
	}
	for c := range k {
		slotOff[c+1] += slotOff[c]
	}
	p.CompSlot = sized(p.CompSlot, int(slotOff[k]))
	cur := append(b.cur[:0], slotOff[:k]...)
	for s := range all - n {
		for _, c := range in[off[n+s]:off[n+s+1]] {
			p.CompSlot[cur[c]] = s
			cur[c]++
		}
	}
	b.cur = cur
	p.CompSlotOff = slotOff
}

// symmetric reports whether every edge between two of p's local
// vertices has its reverse, given transpose's tables: whether each local
// target of a vertex's row is among the vertex's own sources. A vertex
// stamps its sources, and the local entries of its row that find their
// stamp are counted; the part is symmetric when that count reaches the
// number of local entries, which is the transpose's offset of the first
// slot. Slots are never stamped, so no entry is tested for being local.
func symmetric(p *PushPlan, off, in, stamp []uint32) bool {
	found := uint32(0)
	for u := range p.Locals {
		for _, v := range in[off[u]:off[u+1]] {
			stamp[v] = u + 1
		}
		for _, t := range p.Row[p.Off[u]:p.Off[u+1]] {
			if stamp[t] == u+1 {
				found++
			}
		}
	}
	return found == off[p.Locals]
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
