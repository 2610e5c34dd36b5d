package channel

import (
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/ser"
)

// CombinedMessage is the standard combining message channel
// (paper Table I, middle column): messages to the same destination are
// merged with the user combiner, on the sending worker and again on the
// receiving worker into a dense per-vertex slot. Where the generic
// system of §V-B1 stages sender-side combining in a hash table, this
// implementation stages into dense per-destination-worker slots keyed
// by the remote vertex's local index, so both the send and the receive
// path are plain array indexing — no hashing anywhere per superstep.
type CombinedMessage[M any] struct {
	w       *engine.Worker
	codec   ser.Codec[M]
	combine Combiner[M]

	// sender-side combining: dense per-destination-worker slots
	out denseOut[M]
	// receiver side: dense slot per local vertex, epoch-stamped with the
	// superstep whose exchange wrote it (readable in the next superstep).
	in stamped[M]
}

// NewCombinedMessage creates and registers a CombinedMessage channel.
func NewCombinedMessage[M any](w *engine.Worker, codec ser.Codec[M], combine Combiner[M]) *CombinedMessage[M] {
	c := &CombinedMessage[M]{w: w, codec: codec, combine: combine}
	w.Register(c)
	return c
}

// SendMessage sends m to vertex dst, combining with any message already
// staged for dst on this worker. Transitional id-based entry point:
// per-edge loops should pass pre-resolved addresses to Send.
func (c *CombinedMessage[M]) SendMessage(dst graph.VertexID, m M) {
	c.Send(c.w.Addr(dst), m)
}

// Send sends m to the vertex at packed address a, combining with any
// message already staged for it on this worker.
func (c *CombinedMessage[M]) Send(a frag.Addr, m M) {
	c.out.stage(a.Worker(), a.Local(), m, c.combine.Combine)
}

// Message returns the combined message delivered to local vertex li in
// the previous superstep, and whether any message arrived.
func (c *CombinedMessage[M]) Message(li int) (M, bool) {
	return c.in.get(li, int32(c.w.Superstep()-1))
}

// Initialize implements engine.Channel.
func (c *CombinedMessage[M]) Initialize() {
	c.out = newDenseOut[M](c.w)
	c.in = newStamped[M](c.w.LocalCount())
}

// AfterCompute implements engine.Channel. Nothing to do: epoch stamps
// make old inbox slots stale automatically.
func (c *CombinedMessage[M]) AfterCompute() {}

// Serialize implements engine.Channel.
func (c *CombinedMessage[M]) Serialize(dst int, buf *ser.Buffer) {
	c.out.drain(dst, buf, c.codec)
}

// Deserialize implements engine.Channel.
func (c *CombinedMessage[M]) Deserialize(src int, buf *ser.Buffer) {
	n := int(buf.ReadUvarint())
	e := int32(c.w.Superstep())
	for i := 0; i < n; i++ {
		li := int(buf.ReadUvarint())
		m := c.codec.Decode(buf)
		c.in.merge(li, m, e, c.combine.Combine)
		c.w.ActivateLocal(li)
	}
}

// Again implements engine.Channel.
func (c *CombinedMessage[M]) Again() bool { return false }
