package frag

import (
	"slices"

	"repro/internal/partition"
)

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
// between two local vertices has its reverse, and every local vertex as
// many local edges in as out, as on an undirected view under any
// placement — also gets its local components: the connected
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
// counts the edges into every vertex and the local edges out of every
// local vertex, a scan of the counts numbers the remote neighbours, and
// the second writes every target at its final place, so every array is
// allocated at its exact size. Only an unweighted plan whose local
// vertices have as many local edges in as out, as a symmetric local part
// has, is transposed — in the second pass — for the symmetry check and
// the component tables. A builder keeps its count table (a word per
// vertex of the graph) and the transpose, and Build reuses the arrays of
// the plan it is handed: a channel that registers a new edge set every
// few supersteps (Min-Label SCC) rebuilds its plan without allocating.
type PushBuilder struct {
	// target[base[d]+l] counts the edges into vertex l of worker d, then
	// holds its target; all zero again when a build returns. base has one
	// entry per worker plus one.
	target []uint32
	base   []uint32
	// the transpose's offsets and sources, and scratch: a count of local
	// out-edges per local vertex, then a cursor per component
	inOff, in, cur []uint32
}

// sized returns s with length n, in its own array when that is large
// enough. Never nil, so the two build paths agree on an empty array.
func sized[T any](s []T, n int) []T {
	if s != nil && cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// begin sizes the count table on first use — a builder serves one
// partition — and zeroes the out-edge counts of worker me's vertices.
func (b *PushBuilder) begin(part *partition.Partition, me int) {
	if b.base == nil {
		b.base = make([]uint32, part.NumWorkers()+1)
		for d := 0; d < part.NumWorkers(); d++ {
			b.base[d+1] = b.base[d] + uint32(part.LocalCount(d))
		}
		b.target = make([]uint32, part.NumVertices())
	}
	b.cur = sized(b.cur, part.LocalCount(me))
	clear(b.cur)
}

// count notes one more edge into a, the worker's own vertices included,
// and returns 1 if a is a vertex of worker me, 0 if not: the caller adds
// it to the local out-edges of the edge's source. Neither branches on the
// owner, which on a cut graph is a coin toss per edge.
func (b *PushBuilder) count(me int, a Addr) uint32 {
	b.target[b.base[a.Worker()]+a.Local()]++
	local := uint32(0)
	if a.Worker() == me {
		local = 1
	}
	return local
}

// number turns the counts into targets — a vertex of worker me is its own
// target, a counted vertex of another worker gets the next slot — and
// fills the slot tables. It reports whether the plan keeps a transpose,
// which it does when it is unweighted and the counts of each local
// vertex's edges in and out agree, and then sizes the transpose and sums
// its offsets from the counts, two entries up as in Build.
func (b *PushBuilder) number(p *PushPlan, me int, weighted bool, edges int) bool {
	m := len(b.base) - 1
	own := b.target[b.base[me]:b.base[me+1]]
	n := uint32(len(own))
	keep := !weighted && slices.Equal(own, b.cur)
	slots := 0
	for _, c := range b.target {
		slots += int(min(c, 1))
	}
	for _, c := range own {
		slots -= int(min(c, 1))
	}
	if keep {
		b.inOff, b.in = sized(b.inOff, int(n)+slots+2), sized(b.in, edges)
		b.inOff[0], b.inOff[1] = 0, 0
	}
	for l, c := range own {
		if keep {
			b.inOff[l+2] = b.inOff[l+1] + c
		}
		own[l] = uint32(l)
	}
	p.Locals = n
	p.SlotOff = sized(p.SlotOff, m+1)
	p.SlotLocal = sized(p.SlotLocal, slots)
	s := uint32(0)
	for d := 0; d < m; d++ {
		p.SlotOff[d] = s
		if d == me {
			continue
		}
		counts := b.target[b.base[d]:b.base[d+1]]
		for l, c := range counts {
			if c != 0 {
				if keep {
					b.inOff[n+s+2] = b.inOff[n+s+1] + c
				}
				counts[l] = n + s
				p.SlotLocal[s] = uint32(l)
				s++
			}
		}
	}
	p.SlotOff[m] = s
	return keep
}

// place writes the target of an edge from local vertex u to a at
// row[at] and, when the build keeps a transpose, u among the target's
// sources.
func (b *PushBuilder) place(row []uint32, at uint64, u uint32, a Addr, keep bool) {
	t := b.target[b.base[a.Worker()]+a.Local()]
	row[at] = t
	if keep {
		b.in[b.inOff[t+1]] = u
		b.inOff[t+1]++
	}
}

// Build makes p the plan of the edges worker me registered one at a
// time: edge i leaves local vertex src[i] for dst[i] with weight w[i]
// (w is nil for an unweighted edge set) under partition part. A vertex's
// row keeps its edges in registration order. The plan is the one the
// fragment path derives for the same edges; p's arrays are overwritten
// where they are large enough, so p must not be a fragment's plan.
func (b *PushBuilder) Build(p *PushPlan, me int, part *partition.Partition, src []uint32, dst []Addr, w []int32) {
	b.begin(part, me)
	n := part.LocalCount(me)
	// counts go two entries up, so after the prefix sum off[s+1] is s's
	// fill cursor and the fill leaves it at s's end
	off := sized(p.Off, n+2)
	clear(off)
	for i, a := range dst {
		off[src[i]+2]++
		b.cur[src[i]] += b.count(me, a)
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	keep := b.number(p, me, w != nil, len(dst))
	p.Row = sized(p.Row, len(dst))
	if w != nil {
		p.W = sized(p.W, len(dst))
	} else {
		p.W = nil
	}
	for i, a := range dst {
		at := off[src[i]+1]
		off[src[i]+1]++
		b.place(p.Row, at, src[i], a, keep)
		if w != nil {
			p.W[at] = w[i]
		}
	}
	p.Off = off[:n+1]
	b.finish(p, me, keep)
}

// buildCSR is Build over edges already grouped by source. The plan
// shares offsets and w.
func (b *PushBuilder) buildCSR(p *PushPlan, me int, part *partition.Partition, offsets []uint64, adj []Addr, w []int32) {
	b.begin(part, me)
	n := uint32(len(offsets) - 1)
	for u := range n {
		local := uint32(0)
		for _, a := range adj[offsets[u]:offsets[u+1]] {
			local += b.count(me, a)
		}
		b.cur[u] = local
	}
	keep := b.number(p, me, w != nil, len(adj))
	p.Off, p.W = offsets, w
	p.Row = sized(p.Row, len(adj))
	for u := range n {
		for i := offsets[u]; i < offsets[u+1]; i++ {
			b.place(p.Row, i, u, adj[i], keep)
		}
	}
	b.finish(p, me, keep)
}

// finish clears the table number left behind and fills in p's component
// tables, or sets them nil when the build kept no transpose or the
// transpose shows a local part that is not symmetric. All of it runs over
// the transpose — every target's sources, a slot's as well as a
// vertex's, so no pass tests a target for being local: the check, a
// breadth-first search over the vertices' sources, and the component →
// slot table read slot by slot.
func (b *PushBuilder) finish(p *PushPlan, me int, keep bool) {
	clear(b.target[b.base[me]:b.base[me+1]])
	for d := 0; d+1 < len(b.base); d++ {
		marks := b.target[b.base[d]:]
		for _, l := range p.SlotLocal[p.SlotOff[d]:p.SlotOff[d+1]] {
			marks[l] = 0
		}
	}
	// the table is zero again and has a word for every target, which
	// the checks stamp; only local vertices are stamped
	stamp := b.target[:int(p.Locals)+p.Slots()]
	if keep && symmetric(p, b.inOff, b.in, stamp) {
		b.localComponents(p)
		b.componentSlots(p, stamp)
	} else {
		p.Comp, p.MemberOff, p.Member, p.CompSlotOff, p.CompSlot = nil, nil, nil, nil, nil
	}
	clear(stamp[:p.Locals])
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
func (b *PushBuilder) componentSlots(p *PushPlan, stamp []uint32) {
	n, all, off, in := p.Locals, p.Locals+uint32(p.Slots()), b.inOff, b.in
	k := uint32(p.Components())
	slotOff := sized(p.CompSlotOff, int(k)+1)
	clear(slotOff)
	stamp = stamp[:k]
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
// vertices has its reverse, given the transpose: whether each local
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
