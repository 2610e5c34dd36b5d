package channel

import (
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/ser"
)

// DirectMessage is the standard point-to-point message channel
// (paper Table I, first column): send_message(dst, m) during compute,
// and in the next superstep the receiver iterates the messages that
// arrived. No combining is performed.
type DirectMessage[M any] struct {
	w     *engine.Worker
	codec ser.Codec[M]

	// out[d] stages the messages for worker d, destinations as their
	// local index there — an update section as it goes on the wire.
	out []updates[M]
	// rx collects a round's incoming frames in arrival order — source
	// worker, then frame order — until Again groups them by receiver:
	// vertex li's messages are inbox[off[li]:off[li+1]], readable in the
	// superstep after inboxStep.
	rx        updates[M]
	off       []uint64
	inbox     []M
	inboxStep int32
}

// NewDirectMessage creates and registers a DirectMessage channel.
func NewDirectMessage[M any](w *engine.Worker, codec ser.Codec[M]) *DirectMessage[M] {
	c := &DirectMessage[M]{w: w, codec: codec}
	w.Register(c)
	return c
}

// Send sends m to the vertex at packed address a; it is readable there
// in the next superstep. Per-edge loops pass the fragment's pre-resolved
// addresses (Frag().Neighbors); a destination known only by id is
// Worker.Addr(id).
func (c *DirectMessage[M]) Send(a frag.Addr, m M) {
	o := &c.out[a.Worker()]
	o.idx = append(o.idx, a.Local())
	o.vals = append(o.vals, m)
}

// Messages returns the messages delivered to local vertex li in the
// previous superstep, in the order of their source workers and, from
// one source, of their sends. The slice is valid only during the
// current compute call.
func (c *DirectMessage[M]) Messages(li int) []M {
	if c.inboxStep != int32(c.w.Superstep()-1) {
		return nil
	}
	return c.inbox[c.off[li]:c.off[li+1]]
}

// Initialize implements engine.Channel.
func (c *DirectMessage[M]) Initialize() {
	c.out = make([]updates[M], c.w.NumWorkers())
	c.off = make([]uint64, c.w.LocalCount()+2)
	c.inboxStep = -1
}

// AfterCompute implements engine.Channel: the inbox is stamped, not cleared.
func (c *DirectMessage[M]) AfterCompute() {}

// Serialize implements engine.Channel.
func (c *DirectMessage[M]) Serialize(dst int, buf *ser.Buffer) {
	o := &c.out[dst]
	if len(o.idx) == 0 {
		return
	}
	buf.WriteUvarint(uint64(len(o.idx)))
	writeUpdates(buf, c.codec, o.idx, o.vals)
	o.reset()
}

// Deserialize implements engine.Channel: a checked frame joins rx.
func (c *DirectMessage[M]) Deserialize(src int, buf *ser.Buffer) {
	idx, _ := c.rx.readLast(buf, c.codec, buf.ReadCount(math.MaxInt), uint32(c.w.LocalCount()))
	for _, li := range idx {
		c.w.ActivateLocal(int(li))
	}
}

// Again implements engine.Channel: one round is always enough, so
// frames arrive in a superstep's first round only, and that round's
// Again groups them into the inbox. Again also runs after the later
// rounds of a superstep other channels prolong, which find nothing to
// group and leave the inbox as it is.
func (c *DirectMessage[M]) Again() bool {
	if n := len(c.rx.idx); n > 0 {
		c.inbox = slices.Grow(c.inbox[:0], n)[:n]
		groupBy(c.off, c.inbox, c.rx.idx, c.rx.vals)
		c.inboxStep = int32(c.w.Superstep())
		c.rx.reset()
	}
	return false
}
