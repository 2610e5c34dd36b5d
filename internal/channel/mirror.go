package channel

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/frag"
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
	// dstHubs[d] lists the hubs (local vertices of degree >= threshold)
	// with a neighbor on worker d, ascending; a hub's position in this
	// list is its wire ordinal for frames sent to d (fixed by the
	// handshake frame, which enumerates hubs in the same order).
	dstHubs [][]uint32

	// low-degree staging: dense per-destination-worker slots
	low        outbox[M]
	stagedStep int32 // superstep whose low-degree staging pass has run
	// frame holds the sections of the frame being sent or received
	frame updates[M]

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

// AddAddr registers an outgoing edge of the vertex currently computing
// by its packed destination address. All edges must be registered in
// one superstep.
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
	c.srcStart, c.bySrc = c.building.csr(c.w.LocalCount())
	c.building = edgeReg{}
	c.dstHubs = make([][]uint32, c.w.NumWorkers())
	for li := range c.w.LocalCount() {
		if !c.isHub(li) {
			continue
		}
		for _, a := range c.edges(li) {
			if hubs := c.dstHubs[a.Worker()]; len(hubs) == 0 || hubs[len(hubs)-1] != uint32(li) {
				c.dstHubs[a.Worker()] = append(hubs, uint32(li))
			}
		}
	}
	c.low = newOutbox[M](c.w)
	c.prepared = true
	c.handshake = true
}

// edges returns local vertex li's registered destinations.
func (c *Mirror[M]) edges(li int) []frag.Addr { return c.bySrc[c.srcStart[li]:c.srcStart[li+1]] }

// isHub reports whether local vertex li's degree makes it a hub.
func (c *Mirror[M]) isHub(li int) bool { return len(c.edges(li)) >= c.threshold }

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
	for li := range len(c.srcStart) - 1 {
		v, ok := c.srcVal.get(li, e)
		if !ok || c.isHub(li) {
			continue
		}
		for _, a := range c.edges(li) {
			c.low.stage(a.Worker(), a.Local(), v, e, c.combine.Combine)
		}
	}
}

// Serialize implements engine.Channel. The handshake frame ships each
// hub's neighbor list on dst as a count and an update section without
// values; a broadcast frame is two update sections: the mirrored hubs
// that set a value, by ordinal behind a fixed 4-byte count, then the
// combined low-degree messages behind a uvarint count, omitted when
// empty.
func (c *Mirror[M]) Serialize(dst int, buf *ser.Buffer) {
	if !c.prepared {
		return
	}
	if c.handshake {
		hubs := c.dstHubs[dst]
		buf.WriteUint8(mirrorFrameHandshake)
		buf.WriteUvarint(uint64(len(hubs)))
		for _, li := range hubs {
			c.frame.reset()
			for _, a := range c.edges(int(li)) {
				if a.Worker() == dst {
					c.frame.idx = append(c.frame.idx, a.Local())
				}
			}
			buf.WriteUvarint(uint64(len(c.frame.idx)))
			writeUpdates(buf, c.codec, c.frame.idx, nil)
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
	c.frame.reset()
	for ord, li := range c.dstHubs[dst] {
		if v, ok := c.srcVal.get(int(li), e); ok {
			c.frame.idx = append(c.frame.idx, uint32(ord))
			c.frame.vals = append(c.frame.vals, v)
		}
	}
	buf.WriteUint32(uint32(len(c.frame.idx)))
	writeUpdates(buf, c.codec, c.frame.idx, c.frame.vals)
	c.low.drain(dst, buf, c.codec)
}

// Deserialize implements engine.Channel: dispatch on the frame tag.
// Frames are checked before they are used: every count against the
// bytes left, every local index against this worker's vertices, every
// hub ordinal against the handshake table of src, and no frame may
// carry bytes beyond its last section.
func (c *Mirror[M]) Deserialize(src int, buf *ser.Buffer) {
	locals := uint32(len(c.in.val))
	switch buf.ReadUint8() {
	case mirrorFrameHandshake:
		tables := make([][]int32, buf.ReadCount(math.MaxInt))
		for i := range tables {
			tables[i] = make([]int32, buf.ReadCount(math.MaxInt))
			for j := range tables[i] {
				li := buf.ReadUvarint()
				if li >= uint64(locals) {
					panic(fmt.Sprintf("channel: Mirror: hub %d fans out to local %d, worker hosts %d vertices", i, li, locals))
				}
				tables[i][j] = int32(li)
			}
		}
		readDone(buf)
		c.fanout[src] = tables
	case mirrorFrameBroadcast:
		e := int32(c.w.Superstep())
		c.frame.reset()
		// the one fixed-width count of any frame: ReadCount reads
		// uvarints, so its bound is checked here
		n := int(buf.ReadUint32())
		if n > buf.Remaining() {
			panic(fmt.Sprintf("channel: Mirror: %d entries claimed, %d bytes remain", n, buf.Remaining()))
		}
		ords, vals := c.frame.read(buf, c.codec, n, uint32(len(c.fanout[src])))
		for k, ord := range ords {
			for _, li := range c.fanout[src][ord] {
				c.in.merge(int(li), vals[k], e, c.combine.Combine)
				c.w.ActivateLocal(int(li))
			}
		}
		if buf.Remaining() == 0 {
			return // no low-degree section this frame
		}
		idx, vals := c.frame.readLast(buf, c.codec, buf.ReadCount(math.MaxInt), locals)
		deliver(c.w, c.combine, &c.in, e, idx, vals)
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
