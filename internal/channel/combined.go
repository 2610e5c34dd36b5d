package channel

import (
	"math"

	"repro/internal/bsp"
	"repro/internal/engine"
	"repro/internal/frag"
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
	out bsp.Outbox[M]
	// receiver side: dense slot per local vertex, epoch-stamped with the
	// superstep whose exchange wrote it (readable in the next superstep);
	// rx holds the frame being merged.
	in bsp.Stamped[M]
	rx bsp.Updates[M]
}

// NewCombinedMessage creates and registers a CombinedMessage channel.
func NewCombinedMessage[M any](w *engine.Worker, codec ser.Codec[M], combine Combiner[M]) *CombinedMessage[M] {
	c := &CombinedMessage[M]{w: w, codec: codec, combine: combine}
	w.Register(c)
	return c
}

// Send sends m to the vertex at packed address a, combining with any
// message already staged for it on this worker.
func (c *CombinedMessage[M]) Send(a frag.Addr, m M) {
	c.out.Stage(a.Worker(), a.Local(), m, int32(c.w.Superstep()), c.combine.Combine)
}

// Message returns the combined message delivered to local vertex li in
// the previous superstep, and whether any message arrived.
func (c *CombinedMessage[M]) Message(li int) (M, bool) {
	return c.in.Get(li, int32(c.w.Superstep()-1))
}

// Initialize implements engine.Channel.
func (c *CombinedMessage[M]) Initialize() {
	c.out = bsp.NewOutbox[M](c.w.Part())
	c.in = bsp.NewStamped[M](c.w.LocalCount())
}

// AfterCompute implements engine.Channel. Nothing to do: epoch stamps
// make old inbox slots stale automatically.
func (c *CombinedMessage[M]) AfterCompute() {}

// Serialize implements engine.Channel.
func (c *CombinedMessage[M]) Serialize(dst int, buf *ser.Buffer) {
	if idx, vals := c.out.Drain(dst); len(idx) > 0 {
		buf.WriteUvarint(uint64(len(idx)))
		writeUpdates(buf, c.codec, idx, vals)
	}
}

// Deserialize implements engine.Channel: a checked update frame,
// merged through the Combiner.
func (c *CombinedMessage[M]) Deserialize(src int, buf *ser.Buffer) {
	c.rx.Reset()
	idx, vals := readLast(&c.rx, buf, c.codec, buf.ReadCount(math.MaxInt), uint32(len(c.in.Val)))
	deliver(c.w, c.combine, &c.in, int32(c.w.Superstep()), idx, vals)
}

// Again implements engine.Channel.
func (c *CombinedMessage[M]) Again() bool { return false }
