package channel

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bsp"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/ser"
)

// ScatterCombine is the optimized channel for the static messaging
// pattern (paper §IV-C1, Fig. 5): every vertex sends one value to all of
// its registered neighbors each superstep, and the receiver needs only
// the combined value. The pre-calculation of Fig. 5 is a
// frag.ScatterPlan — the edges transposed and sorted by destination,
// per destination worker. UseFragment adopts the plan of the worker's
// whole fragment zero-copy: it is derived once per cached view, shared
// by every job that runs on the view and charged to the catalog budget.
// AddAddr (the paper's add_edge) registers a custom edge set instead,
// whose plan the same builder produces privately when the registering
// superstep ends. Either way a superstep is one gather-reduce over the
// plan, front to back — no hashing, no per-message routing. The plan
// stores a segment's runs frag.Lanes at a time, ranked by length and
// column-major, so the Combiner's fold keeps that many independent
// combine chains in flight instead of waiting out one dependent add per
// edge; lanes are length-matched because runs adjacent in destination
// order have unrelated lengths on a skewed graph. Each destination's
// sources still combine left to right in ascending local index, so
// rounding does not depend on the layout, and frames stay in ascending
// destination order whatever order the fold produces them in.
//
// A dense superstep (every plan source set a value, one SetMessage per
// vertex or all of them at once through Values) costs three calls
// per peer worker on each side, whatever the segment's size: the
// Combiner folds the whole segment into a scratch slice and the codec
// encodes the slice; the receiver decodes the slice, the Combiner merges
// it into the inbox along the handshaken list, and the listed vertices
// are activated. With Sum or Min and a fixed-width codec no function is
// called per edge or per value. A superstep in which some source stayed
// silent takes the presence-byte path: the same walk over the groups,
// one freshness check and at most one Combine per edge.
//
// Wire format. This comment is the format's one description. Because
// the destination set never changes, the sender ships each destination
// worker its ascending destination-index list once, in the frame of the
// first superstep in which any local vertex scatters, so identifiers
// cross the wire once per job instead of once per value — the source of
// both the runtime gain and the message-size reduction in Table V. A
// frame is a flags byte, then:
//
//   - with scFrameTable, the list: a uvarint length n and n uvarint
//     gaps between ascending local indices (the first from 0);
//   - on a dense superstep, one combined value per listed destination,
//     in list order;
//   - with scFramePartial, in a superstep where some source stayed
//     silent, the same values with each group of eight destinations
//     preceded by a presence byte (bit k&7 for destination k) and the
//     absent values omitted;
//   - with scFrameDelta, a dense superstep's values as a change against
//     the last dense frame of this (source, destination) stream: a
//     ⌈n/8⌉-byte bitmap of the slots whose encoding changed
//     (ser.UpdateSlice; padding bits clear), then the changed values in
//     list order. An unset bit means the slot carries the value it
//     carried last time, so the receiver, which keeps each stream's
//     last values, merges all n slots exactly as from a dense frame.
//
// The sender takes the delta form when the codec has a fixed width and
// the form is smaller than the values (static pointers in S-V's later
// supersteps; never PageRank's ranks, which nearly all change, so it
// soon stops looking: see scSent). The handshake frame and a stream's
// first dense frame are plain dense ones, and partial frames neither
// read nor update the last values.
// This is delta caching (Gonzalez et al., PowerGraph, OSDI 2012) done
// by the channel, below the algorithm.
type ScatterCombine[M any] struct {
	w       *engine.Worker
	codec   ser.Codec[M]
	combine Combiner[M]

	plan *frag.ScatterPlan
	reg  edgeReg // AddAddr registrations; non-empty iff plan is private

	// per-superstep source values, epoch-stamped by SetMessage
	srcVal bsp.Stamped[M]
	// setEpoch is the superstep of the latest SetMessage; supersteps in
	// which no local vertex scatters skip the plan scan entirely (in a
	// multi-phase algorithm like S-V most supersteps do not scatter).
	setEpoch int32
	// valuesEpoch is the superstep of the latest Values call, which
	// declares every plan source set without stamping one
	valuesEpoch int32
	// dense: every plan source called SetMessage this superstep (or
	// Values declared them all set), so the scan needs no freshness
	// checks and every destination has a value
	dense bool
	// handshaken: the destination lists have been shipped
	handshaken bool

	// receiver side: tab[src] is the destination list worker src's
	// frames are ordered by; in is the dense slot per local vertex
	tab [][]uint32
	in  bsp.Stamped[M]

	// vals holds one frame's values between the Combiner and the codec,
	// on either side (a delta frame's changed ones, compacted); have
	// marks the destinations of a partial frame that received one. No
	// segment or destination list is longer than the largest worker's
	// vertex count, so they are sized once.
	vals []M
	have []bool

	// delta frames, when the codec has a fixed width (else width is 0
	// and the slices stay nil): the sender's state per destination
	// worker, and per source worker the values of its last dense frame
	// in tab[src]'s order (nil before the first)
	width int
	sent  []scSent[M]
	last  [][]M
}

// scSent is the sender's side of one delta stream. last holds the
// values of the stream's last dense frame, nil before the first. A
// stream whose values nearly all change every superstep, as PageRank's
// ranks do, would pay the diff for nothing; so after dull consecutive
// diffs that chose the dense form, the next 2^(dull-1)-1 dense frames
// (at most scMaxSkip) skip it — skip counts them down, and last is
// brought up to date by the last of them. Partial frames count for
// nothing.
type scSent[M any] struct {
	last       []M
	dull, skip uint8
}

const scMaxSkip = 15

const (
	scFrameTable   = 1 << 0 // the destination list precedes the values
	scFramePartial = 1 << 1 // presence bytes are interleaved with the values
	scFrameDelta   = 1 << 2 // a changed-slot bitmap precedes the changed values
)

// NewScatterCombine creates and registers a ScatterCombine channel.
func NewScatterCombine[M any](w *engine.Worker, codec ser.Codec[M], combine Combiner[M]) *ScatterCombine[M] {
	c := &ScatterCombine[M]{w: w, codec: codec, combine: combine}
	w.Register(c)
	return c
}

// UseFragment makes every local vertex scatter along all of its
// fragment edges — the whole-graph case of PageRank and S-V — by
// adopting the fragment's cached plan. Call it once per worker from the
// setup function, instead of AddAddr loops.
func (c *ScatterCombine[M]) UseFragment(f *frag.Fragment) {
	if c.plan != nil || len(c.reg.addr) > 0 {
		panic("channel: ScatterCombine.UseFragment after edge registration")
	}
	c.plan = f.ScatterPlan()
}

// AddAddr registers an outgoing edge of the vertex currently computing
// by its packed destination address (paper: add_edge(dst); resolve a
// vertex id with Worker.Addr). All edges must be added within one
// superstep, no later than the first SetMessage; adding later panics.
func (c *ScatterCombine[M]) AddAddr(a frag.Addr) {
	if c.plan != nil {
		panic("channel: ScatterCombine edge registration after the plan was built")
	}
	c.reg.add(c.w.CurrentLocal(), a)
}

// SetMessage sets the value the current vertex scatters to all its
// registered neighbors this superstep. A vertex that does not call
// SetMessage sends nothing.
func (c *ScatterCombine[M]) SetMessage(m M) {
	c.setEpoch = int32(c.w.Superstep())
	c.srcVal.Set(c.w.CurrentLocal(), m, c.setEpoch)
}

// Values returns the source values, one slot per local vertex, for a
// ComputeRange program to write this superstep's values into in place:
// SetMessage for the whole range at once. Calling it declares the
// superstep dense — every vertex with registered edges scatters the
// value its slot holds when compute ends — so no slot is stamped and
// none is checked. Slots of vertices without edges are never read. The
// slice is the channel's own and stays valid for the whole job.
func (c *ScatterCombine[M]) Values() []M {
	c.setEpoch = int32(c.w.Superstep())
	c.valuesEpoch = c.setEpoch
	return c.srcVal.Val
}

// Message returns the combined value delivered to local vertex li in the
// previous superstep.
func (c *ScatterCombine[M]) Message(li int) (M, bool) {
	return c.in.Get(li, int32(c.w.Superstep()-1))
}

// Initialize implements engine.Channel.
func (c *ScatterCombine[M]) Initialize() {
	c.srcVal = bsp.NewStamped[M](c.w.LocalCount())
	c.in = bsp.NewStamped[M](c.w.LocalCount())
	c.tab = make([][]uint32, c.w.NumWorkers())
	most := 0
	for d := range c.tab {
		most = max(most, c.w.Part().LocalCount(d))
	}
	c.vals = make([]M, most)
	c.have = make([]bool, most)
	if c.width = ser.FixedWidth(c.codec); c.width > 0 {
		c.sent = make([]scSent[M], c.w.NumWorkers())
		c.last = make([][]M, c.w.NumWorkers())
	}
}

// buildPrivatePlan turns the AddAddr registrations into a plan with the
// builder the fragment plans come from.
func (c *ScatterCombine[M]) buildPrivatePlan() {
	counts := make([]int, c.w.NumWorkers())
	for d := range counts {
		counts[d] = c.w.Part().LocalCount(d)
	}
	offsets, adj := c.reg.csr(c.w.LocalCount())
	c.plan = frag.NewScatterPlan(counts, offsets, adj)
}

// AfterCompute implements engine.Channel.
func (c *ScatterCombine[M]) AfterCompute() {
	if c.plan == nil && len(c.reg.addr) > 0 {
		c.buildPrivatePlan()
	}
	e := int32(c.w.Superstep())
	c.dense = c.plan != nil && c.setEpoch == e
	if c.dense && c.valuesEpoch != e {
		for _, s := range c.plan.Sources {
			if c.srcVal.Epoch[s] != e {
				c.dense = false
				break
			}
		}
	}
}

// Serialize implements engine.Channel: one gather-reduce over the plan
// segment for dst. A run's sources are combined in ascending local
// index and values leave in Dst order, whichever path runs.
func (c *ScatterCombine[M]) Serialize(dst int, buf *ser.Buffer) {
	e := int32(c.w.Superstep())
	if c.plan == nil || c.setEpoch != e {
		return
	}
	seg := &c.plan.To[dst]
	if len(seg.Dst) == 0 {
		return
	}
	mark := buf.Len()
	var flags uint8
	if !c.handshaken {
		flags |= scFrameTable
	}
	if !c.dense {
		flags |= scFramePartial
	}
	buf.WriteUint8(flags)
	if !c.handshaken {
		buf.WriteUvarint(uint64(len(seg.Dst)))
		prev := uint32(0)
		for _, l := range seg.Dst {
			buf.WriteUvarint(uint64(l - prev)) // ascending: gaps stay small
			prev = l
		}
	}
	out := c.vals[:len(seg.Dst)]
	if c.dense {
		c.combine.fold(out, c.srcVal.Val, seg.Src, seg.Groups)
		if c.width == 0 || !c.encodeDelta(&c.sent[dst], buf, mark, out) {
			ser.EncodeSlice(buf, c.codec, out)
		}
		return
	}
	// the fold's walk over the lane layout, one fresh check per edge
	have := c.have[:len(seg.Dst)]
	clear(have)
	val, fresh, i := c.srcVal.Val, c.srcVal.Epoch, 0
	for gi := range seg.Groups {
		g := &seg.Groups[gi]
		j := uint32(0)
		for live := frag.Lanes; live > 0; live-- {
			for ; j < g.Len[live-1]; j++ {
				for lane, s := range seg.Src[i : i+live] {
					if fresh[s] != e {
						continue
					}
					if k := g.Pos[lane]; have[k] {
						out[k] = c.combine.Combine(out[k], val[s])
					} else {
						out[k], have[k] = val[s], true
					}
				}
				i += live
			}
		}
	}
	sent, presence := 0, 0
	for k, v := range out {
		if k&7 == 0 {
			presence = buf.Len()
			buf.WriteUint8(0)
		}
		if have[k] {
			buf.Bytes()[presence] |= 1 << (k & 7)
			c.codec.Encode(buf, v)
			sent++
		}
	}
	if sent == 0 && c.handshaken {
		buf.Truncate(mark) // nothing for this worker: no frame
	}
}

// encodeDelta writes the dense frame of values out, whose flags byte
// is at mark, as a delta frame against st.last when the stream has
// carried a dense frame and the changed values with their bitmap take
// fewer bytes than all of them, and reports whether it did. Either way
// st.last holds out afterwards, unless the frame skips the diff.
func (c *ScatterCombine[M]) encodeDelta(st *scSent[M], buf *ser.Buffer, mark int, out []M) bool {
	switch {
	case st.last == nil:
		st.last = slices.Clone(out)
		return false
	case st.skip > 0:
		if st.skip--; st.skip == 0 {
			copy(st.last, out)
		}
		return false
	}
	n, at := len(out), buf.Len()
	changed := buf.Extend((n + 7) >> 3)
	if k := ser.UpdateSlice(c.codec, changed, st.last, out); len(changed)+k*c.width >= n*c.width {
		buf.Truncate(at)
		st.dull = min(st.dull+1, 8)
		st.skip = uint8(min(1<<(st.dull-1)-1, scMaxSkip))
		return false
	}
	st.dull = 0
	buf.Bytes()[mark] |= scFrameDelta
	k := 0 // the changed values move to the front of out, in order
	for i, m := range changed {
		for ; m != 0; m &= m - 1 {
			out[k] = out[i<<3|bits.TrailingZeros8(m)]
			k++
		}
	}
	ser.EncodeSlice(buf, c.codec, out[:k])
	return true
}

// Deserialize implements engine.Channel. Frames that arrived over a
// socket are untrusted: anything that disagrees with the handshaken
// destination list panics, which the engine reports as a worker error
// naming this channel and src.
func (c *ScatterCombine[M]) Deserialize(src int, buf *ser.Buffer) {
	flags := buf.ReadUint8()
	known := uint8(scFrameTable | scFramePartial)
	if c.width > 0 {
		known |= scFrameDelta
	}
	if flags&^known != 0 {
		panic(fmt.Sprintf("channel: ScatterCombine: unknown frame flags %#x", flags))
	}
	if flags&(scFrameDelta|scFramePartial) == scFrameDelta|scFramePartial {
		panic("channel: ScatterCombine: delta and partial flags on one frame")
	}
	if flags&scFrameTable != 0 {
		c.readTable(src, buf)
	}
	tab := c.tab[src]
	if tab == nil {
		panic("channel: ScatterCombine: values before any destination list")
	}
	e := int32(c.w.Superstep())
	switch {
	case flags&scFrameDelta != 0:
		last := c.last[src]
		if last == nil {
			panic("channel: ScatterCombine: delta frame before any dense frame")
		}
		changed, k := buf.ReadBitmap(len(tab))
		in := c.vals[:k]
		ser.DecodeSlice(buf, c.codec, in)
		k = 0
		for i, m := range changed {
			for ; m != 0; m &= m - 1 {
				last[i<<3|bits.TrailingZeros8(m)] = in[k]
				k++
			}
		}
		deliver(c.w, c.combine, &c.in, e, tab, last)
	case flags&scFramePartial == 0:
		in := c.vals[:len(tab)]
		if c.width > 0 {
			if c.last[src] == nil {
				c.last[src] = make([]M, len(tab))
			}
			in = c.last[src]
		}
		ser.DecodeSlice(buf, c.codec, in)
		deliver(c.w, c.combine, &c.in, e, tab, in)
	default:
		var presence uint8
		for k, li := range tab {
			if k&7 == 0 {
				presence = buf.ReadUint8()
			}
			if presence>>(k&7)&1 == 0 {
				continue
			}
			c.in.Merge(int(li), c.codec.Decode(buf), e, c.combine.Combine)
			c.w.ActivateLocal(int(li))
		}
	}
	if n := buf.Remaining(); n != 0 {
		panic(fmt.Sprintf("channel: ScatterCombine: %d bytes beyond the values of %d handshaken destinations", n, len(tab)))
	}
}

// readTable decodes the one destination list worker src ever sends:
// strictly ascending local indices of this worker, gap-encoded.
func (c *ScatterCombine[M]) readTable(src int, buf *ser.Buffer) {
	if c.tab[src] != nil {
		panic("channel: ScatterCombine: second destination list")
	}
	locals := uint64(len(c.in.Val))
	n := buf.ReadUvarint()
	if n == 0 || n > locals {
		panic(fmt.Sprintf("channel: ScatterCombine: destination list of %d entries, worker hosts %d vertices", n, locals))
	}
	tab := make([]uint32, n)
	li := uint64(0)
	for k := range tab {
		gap := buf.ReadUvarint()
		if gap >= locals || k > 0 && gap == 0 || li+gap >= locals {
			panic(fmt.Sprintf("channel: ScatterCombine: destination list entry %d out of order or >= %d local vertices", k, locals))
		}
		li += gap
		tab[k] = uint32(li)
	}
	c.tab[src] = tab
}

// Again implements engine.Channel. The round of the first scattering
// superstep carried the destination lists.
func (c *ScatterCombine[M]) Again() bool {
	if c.plan != nil && c.setEpoch == int32(c.w.Superstep()) {
		c.handshaken = true
	}
	return false
}
