package channel

import (
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/ser"
)

// Mirror is an extension channel (not in the paper's Table II) that
// demonstrates the paper's claim that the channel interface lets experts
// package further optimizations as channels: it implements Pregel+'s
// ghost/mirroring technique — sender-side message combining for
// high-degree vertices — as a composable channel. A vertex whose
// registered degree reaches the threshold sends one message per worker
// holding mirrors of it, and the receiving worker fans the value out to
// the local neighbors; low-degree vertices fall back to ordinary
// receiver-combined sends. In Pregel+ the equivalent ghost mode is an
// engine-wide switch that cannot coexist with the reqresp mode (§VI);
// here it is just another channel.
//
// The mirror fan-out tables are built with an extra handshake exchange
// round in the superstep where the edges are registered, using the
// channel mechanism's again() facility — no out-of-band preprocessing.
// Every frame starts with a phase tag so receivers need no shared
// phase state.
//
// The steady-state paths are fully dense: hubs are referenced on the
// wire by their per-(sender, receiver) ordinal — the position of the hub
// in that sender's handshake frame — so the receiver fans out by
// indexing a flat table, and low-degree messages are staged in dense
// per-destination slots keyed by the remote local index. After the
// one-time handshake no hash map is touched on either side.
type Mirror[M any] struct {
	w         *engine.Worker
	codec     ser.Codec[M]
	combine   Combiner[M]
	threshold int

	// registration (one superstep)
	building edgeReg
	prepared bool

	// sender side, after preparation: the packed destination addresses
	// of all edges grouped by source, so both the staging scan and the
	// handshake read (owner, local) without the partition
	bySrc    []frag.Addr
	srcStart []uint64 // len n+1
	// hubs: local vertices with degree >= threshold
	hubSlot []int32 // local vertex -> hub slot or -1
	hubLi   []int32 // hub slot -> local vertex
	// dstHubs[d] lists the hub slots mirrored on worker d in ascending
	// slot order; a hub's position in this list is its wire ordinal for
	// frames sent to d (fixed by the handshake frame, which enumerates
	// hubs in the same order).
	dstHubs [][]int32

	// low-degree staging: dense per-destination-worker slots
	low        denseOut[M]
	stagedStep int32 // superstep whose low-degree staging pass has run

	// receiver side: fanout[src][ordinal] -> local neighbor indices
	fanout [][][]int32

	srcVal   stamped[M]
	setEpoch int32
	in       stamped[M]

	handshake bool // this worker still owes the handshake frame
}

const (
	mirrorFrameHandshake = 0
	mirrorFrameBroadcast = 1
)

// NewMirror creates and registers a Mirror channel with the given
// hub-degree threshold (the paper's experiments use 16 for Pregel+'s
// ghost mode).
func NewMirror[M any](w *engine.Worker, codec ser.Codec[M], combine Combiner[M], threshold int) *Mirror[M] {
	if threshold < 1 {
		threshold = 1
	}
	c := &Mirror[M]{w: w, codec: codec, combine: combine, threshold: threshold}
	w.Register(c)
	return c
}

// AddEdge registers an outgoing edge of the vertex currently computing.
// All edges must be registered in one superstep. Transitional id-based
// entry point; AddAddr takes the pre-resolved address directly.
func (c *Mirror[M]) AddEdge(dst graph.VertexID) {
	c.AddAddr(c.w.Addr(dst))
}

// AddAddr registers an outgoing edge of the vertex currently computing
// by its packed destination address.
func (c *Mirror[M]) AddAddr(a frag.Addr) {
	if c.prepared {
		panic("channel: Mirror edge registration after preparation")
	}
	c.building.add(c.w.CurrentLocal(), a)
}

// SetMessage sets the value the current vertex broadcasts to all its
// registered neighbors this superstep.
func (c *Mirror[M]) SetMessage(m M) {
	c.setEpoch = int32(c.w.Superstep())
	c.srcVal.set(c.w.CurrentLocal(), m, c.setEpoch)
}

// Message returns the combined value delivered to local vertex li in
// the previous superstep.
func (c *Mirror[M]) Message(li int) (M, bool) {
	return c.in.get(li, int32(c.w.Superstep()-1))
}

// Initialize implements engine.Channel.
func (c *Mirror[M]) Initialize() {
	n := c.w.LocalCount()
	c.srcVal = newStamped[M](n)
	c.in = newStamped[M](n)
	c.fanout = make([][][]int32, c.w.NumWorkers())
	c.stagedStep = -1
}

func (c *Mirror[M]) prepare() {
	n := c.w.LocalCount()
	m := c.w.NumWorkers()
	c.srcStart, c.bySrc = c.building.csr(n)
	c.building = edgeReg{}

	c.hubSlot = make([]int32, n)
	c.dstHubs = make([][]int32, m)
	seen := make([]bool, m)
	for li := 0; li < n; li++ {
		c.hubSlot[li] = -1
		deg := int(c.srcStart[li+1] - c.srcStart[li])
		if deg < c.threshold {
			continue
		}
		slot := int32(len(c.hubLi))
		c.hubSlot[li] = slot
		c.hubLi = append(c.hubLi, int32(li))
		for i := range seen {
			seen[i] = false
		}
		for _, a := range c.bySrc[c.srcStart[li]:c.srcStart[li+1]] {
			if o := a.Worker(); !seen[o] {
				seen[o] = true
				c.dstHubs[o] = append(c.dstHubs[o], slot)
			}
		}
	}
	c.low = newDenseOut[M](c.w)
	c.prepared = true
	c.handshake = true
}

// AfterCompute implements engine.Channel.
func (c *Mirror[M]) AfterCompute() {
	if !c.prepared && len(c.building.addr) > 0 {
		c.prepare()
	}
}

// stageLowDegree runs the once-per-superstep staging pass for low-degree
// vertices: one linear scan over the sorted edge list, combining into
// dense per-destination slots.
func (c *Mirror[M]) stageLowDegree(e int32) {
	for li, slot := range c.hubSlot {
		if slot >= 0 {
			continue
		}
		v, ok := c.srcVal.get(li, e)
		if !ok {
			continue
		}
		for p := c.srcStart[li]; p < c.srcStart[li+1]; p++ {
			a := c.bySrc[p]
			c.low.stage(a.Worker(), a.Local(), v, c.combine.Combine)
		}
	}
}

// Serialize implements engine.Channel. The handshake frame ships each
// hub's per-worker neighbor lists (as local indices on the receiver);
// broadcast frames ship one (hub ordinal, value) per mirrored hub plus
// combined low-degree messages as (localIndex, value) pairs.
func (c *Mirror[M]) Serialize(dst int, buf *ser.Buffer) {
	if !c.prepared {
		return
	}
	if c.handshake {
		hubs := c.dstHubs[dst]
		buf.WriteUint8(mirrorFrameHandshake)
		buf.WriteUvarint(uint64(len(hubs)))
		for _, slot := range hubs {
			li := c.hubLi[slot]
			seg := c.srcStart[li]
			end := c.srcStart[li+1]
			cnt := 0
			for p := seg; p < end; p++ {
				if c.bySrc[p].Worker() == dst {
					cnt++
				}
			}
			buf.WriteUvarint(uint64(cnt))
			for p := seg; p < end; p++ {
				if a := c.bySrc[p]; a.Worker() == dst {
					buf.WriteUvarint(uint64(a.Local()))
				}
			}
		}
		return
	}
	e := int32(c.w.Superstep())
	if c.setEpoch != e {
		return
	}
	if c.stagedStep != e {
		c.stageLowDegree(e)
		c.stagedStep = e
	}
	buf.WriteUint8(mirrorFrameBroadcast)
	// section 1: hub broadcasts, referenced by per-(src,dst) ordinal
	hubPos := buf.Len()
	buf.WriteUint32(0)
	hubs := uint32(0)
	for ord, slot := range c.dstHubs[dst] {
		v, ok := c.srcVal.get(int(c.hubLi[slot]), e)
		if !ok {
			continue
		}
		buf.WriteUvarint(uint64(ord))
		c.codec.Encode(buf, v)
		hubs++
	}
	buf.PatchUint32(hubPos, hubs)
	// section 2: combined low-degree messages
	c.low.drain(dst, buf, c.codec)
}

// Deserialize implements engine.Channel: dispatch on the frame tag.
func (c *Mirror[M]) Deserialize(src int, buf *ser.Buffer) {
	switch buf.ReadUint8() {
	case mirrorFrameHandshake:
		hubs := int(buf.ReadUvarint())
		tables := make([][]int32, hubs)
		for i := 0; i < hubs; i++ {
			n := int(buf.ReadUvarint())
			lst := make([]int32, n)
			for j := 0; j < n; j++ {
				lst[j] = int32(buf.ReadUvarint())
			}
			tables[i] = lst
		}
		c.fanout[src] = tables
	case mirrorFrameBroadcast:
		e := int32(c.w.Superstep())
		deliver := func(li int32, m M) {
			c.in.merge(int(li), m, e, c.combine.Combine)
			c.w.ActivateLocal(int(li))
		}
		hubs := int(buf.ReadUint32())
		for i := 0; i < hubs; i++ {
			ord := int(buf.ReadUvarint())
			m := c.codec.Decode(buf)
			for _, li := range c.fanout[src][ord] {
				deliver(li, m)
			}
		}
		if buf.Remaining() == 0 {
			return // no low-degree section this frame
		}
		n := int(buf.ReadUvarint())
		for i := 0; i < n; i++ {
			li := int32(buf.ReadUvarint())
			m := c.codec.Decode(buf)
			deliver(li, m)
		}
	default:
		panic("channel: Mirror: unknown frame tag")
	}
}

// Again implements engine.Channel: one extra round after the handshake
// so a SetMessage issued in the registration superstep still reaches
// its receivers through the freshly built tables.
func (c *Mirror[M]) Again() bool {
	if c.handshake {
		c.handshake = false
		return c.setEpoch == int32(c.w.Superstep())
	}
	return false
}
