package channel

import (
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

	// outgoing staging, one slice per destination worker; destinations
	// are staged as their dense local index on the owning worker, which
	// is also the wire encoding.
	out [][]outMsg[M]
	// inbox: per local vertex, filled during exchange, consumed next
	// superstep; touched tracks which slots to clear lazily.
	inbox   [][]M
	touched []int
}

type outMsg[M any] struct {
	dst int32 // local index on the destination worker
	m   M
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
	o := a.Worker()
	c.out[o] = append(c.out[o], outMsg[M]{dst: int32(a.Local()), m: m})
}

// Messages returns the messages delivered to local vertex li in the
// previous superstep. The slice is valid only during the current compute
// call.
func (c *DirectMessage[M]) Messages(li int) []M { return c.inbox[li] }

// Initialize implements engine.Channel.
func (c *DirectMessage[M]) Initialize() {
	c.out = make([][]outMsg[M], c.w.NumWorkers())
	c.inbox = make([][]M, c.w.LocalCount())
}

// AfterCompute implements engine.Channel: the inbox the vertices just
// read is retired.
func (c *DirectMessage[M]) AfterCompute() {
	for _, li := range c.touched {
		c.inbox[li] = c.inbox[li][:0]
	}
	c.touched = c.touched[:0]
}

// Serialize implements engine.Channel.
func (c *DirectMessage[M]) Serialize(dst int, buf *ser.Buffer) {
	msgs := c.out[dst]
	if len(msgs) == 0 {
		return
	}
	buf.WriteUvarint(uint64(len(msgs)))
	for _, om := range msgs {
		buf.WriteUvarint(uint64(om.dst))
		c.codec.Encode(buf, om.m)
	}
	c.out[dst] = msgs[:0]
}

// Deserialize implements engine.Channel.
func (c *DirectMessage[M]) Deserialize(src int, buf *ser.Buffer) {
	n := int(buf.ReadUvarint())
	for i := 0; i < n; i++ {
		li := int(buf.ReadUvarint())
		m := c.codec.Decode(buf)
		if len(c.inbox[li]) == 0 {
			c.touched = append(c.touched, li)
		}
		c.inbox[li] = append(c.inbox[li], m)
		c.w.ActivateLocal(li)
	}
}

// Again implements engine.Channel: one round is always enough.
func (c *DirectMessage[M]) Again() bool { return false }
