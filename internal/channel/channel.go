// Package channel provides the communication-channel library of the
// paper: the standard channels of Table I (DirectMessage,
// CombinedMessage, Aggregator) and the optimized channels of Table II
// (ScatterCombine, RequestRespond, Propagation). Channels are the only
// communication mechanism of the engine; an algorithm composes whichever
// channels match its communication patterns, which is how different
// optimizations coexist in one program (the paper's core contribution,
// demonstrated on S-V in §III-C).
//
// All channels are generic over the message type, taking a ser.Codec for
// wire encoding; combining channels additionally take a Combiner (Sum,
// Min, or CombinerFunc around a custom function). The two channels with
// a pre-calculated layout — ScatterCombine over a frag.ScatterPlan,
// Propagation over a frag.PushPlan — run the Combiner's own loops over
// it instead of calling Combine per edge.
package channel

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/ser"
)

// epoch tagging: several channels stamp per-vertex slots with the
// superstep that wrote them instead of clearing arrays between
// supersteps. A slot is fresh iff its stamp matches the expected step.
type stamped[T any] struct {
	val   []T
	epoch []int32
}

// newStamped stamps every slot -1, a superstep that never runs (with 0,
// superstep 1 would read every slot as delivered the step before).
func newStamped[T any](n int) stamped[T] {
	s := stamped[T]{val: make([]T, n), epoch: make([]int32, n)}
	for i := range s.epoch {
		s.epoch[i] = -1
	}
	return s
}

func (s *stamped[T]) set(i int, v T, e int32) {
	s.val[i] = v
	s.epoch[i] = e
}

func (s *stamped[T]) get(i int, e int32) (T, bool) {
	if s.epoch[i] == e {
		return s.val[i], true
	}
	var zero T
	return zero, false
}

// merge delivers v to slot i in epoch e: the epoch's first value is
// stored, later ones are combined into it.
func (s *stamped[T]) merge(i int, v T, e int32, combine func(T, T) T) {
	if s.epoch[i] == e {
		v = combine(s.val[i], v)
	}
	s.set(i, v, e)
}

// edgeReg collects the (source local index, packed destination address)
// pairs the current vertex registers through a channel's AddAddr.
type edgeReg struct {
	src  []uint32
	addr []frag.Addr
}

func (r *edgeReg) add(src int, a frag.Addr) {
	r.src = append(r.src, uint32(src))
	r.addr = append(r.addr, a)
}

// csr groups the registered edges by source: a CSR over n local
// vertices, each vertex's addresses in registration order.
func (r *edgeReg) csr(n int) (offsets []uint64, adj []frag.Addr) {
	adj = make([]frag.Addr, len(r.addr))
	return groupBy(make([]uint64, n+2), adj, r.src, r.addr), adj
}

// groupBy is a stable counting sort of val by key into out: group k
// ends up in out[off[k]:off[k+1]], in the order of val. off holds one
// more entry than the offsets it returns. Counts go two slots up, so
// after the prefix sum off[k+1] is k's fill cursor and the fill leaves
// it at k's end — no copy of the offsets to fill from.
func groupBy[T any](off []uint64, out []T, key []uint32, val []T) []uint64 {
	clear(off)
	for _, k := range key {
		off[k+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	for i, k := range key {
		out[off[k+1]] = val[i]
		off[k+1]++
	}
	return off[:len(off)-1]
}

// readDone panics if buf has bytes left after a frame or blob's end.
func readDone(buf *ser.Buffer) {
	if n := buf.Remaining(); n != 0 {
		panic(fmt.Sprintf("channel: %d trailing bytes", n))
	}
}

// The update frame is the wire format of every channel that addresses
// values to the receiver's vertices — DirectMessage, CombinedMessage and
// Propagation: a uvarint count, the local indices as uvarints, then the
// values as one ser.EncodeSlice (one call for a fixed-width codec).

// writeUpdates appends an update section: idx as uvarints, then vals.
func writeUpdates[M any](buf *ser.Buffer, codec ser.Codec[M], idx []uint32, vals []M) {
	buf.WriteUvarints(idx)
	ser.EncodeSlice(buf, codec, vals)
}

// updates holds decoded update sections: indices and values in frame
// order.
type updates[M any] struct {
	idx  []uint32
	vals []M
}

func (u *updates[M]) reset() { u.idx, u.vals = u.idx[:0], u.vals[:0] }

// readLast appends the section of m updates that ends the frame at the
// front of buf and returns it; m was bounded when it was read (ReadCount
// or a narrower check). An index not below bound, a value past the end
// or bytes beyond the values panic, and the engine reports that as a
// worker error naming the channel and the source.
func (u *updates[M]) readLast(buf *ser.Buffer, codec ser.Codec[M], m int, bound uint32) ([]uint32, []M) {
	k := len(u.idx)
	u.idx = slices.Grow(u.idx, m)[:k+m]
	u.vals = slices.Grow(u.vals, m)[:k+m]
	idx, vals := u.idx[k:], u.vals[k:]
	buf.ReadUvarints(idx)
	for i, li := range idx {
		if li >= bound {
			panic(fmt.Sprintf("channel: update %d addresses local %d, receiver has %d", i, li, bound))
		}
	}
	ser.DecodeSlice(buf, codec, vals)
	if rest := buf.Remaining(); rest != 0 {
		panic(fmt.Sprintf("channel: %d bytes beyond the values of %d updates", rest, m))
	}
	return idx, vals
}

// deliver merges a received section into the epoch-e slots of in
// through c's merge loop and wakes the receivers.
func deliver[M any](w *engine.Worker, c Combiner[M], in *stamped[M], e int32, idx []uint32, vals []M) {
	c.merge(in.val, in.epoch, e, idx, vals)
	for _, li := range idx {
		w.ActivateLocal(int(li))
	}
}

// outbox is the sender-side staging of the combining channels: per
// destination worker one value slot per vertex it hosts, addressed by
// the vertex's local index there (the Partition gives every vertex a
// dense (owner, localIndex) pair) and stamped with the superstep that
// staged it, plus the staged indices in first-touch order. Staging is an
// array write and a stamp check — no hashing, nothing to clear between
// supersteps. A superstep stages all its values before its first drain.
type outbox[M any] struct {
	slot    []stamped[M]
	touched [][]uint32
	vals    []M // drain's scratch
}

func newOutbox[M any](w *engine.Worker) outbox[M] {
	o := outbox[M]{slot: make([]stamped[M], w.NumWorkers()), touched: make([][]uint32, w.NumWorkers())}
	for d := range o.slot {
		o.slot[d] = newStamped[M](w.Part().LocalCount(d))
	}
	return o
}

// stage combines m into the slot for local index li on worker d in
// superstep e.
func (o *outbox[M]) stage(d int, li uint32, m M, e int32, combine func(M, M) M) {
	s := &o.slot[d]
	if s.epoch[li] == e {
		s.val[li] = combine(s.val[li], m)
		return
	}
	s.val[li], s.epoch[li] = m, e
	o.touched[d] = append(o.touched[d], li)
}

// drain writes the values staged for worker d as a uvarint count and an
// update section, and empties the list. It writes nothing when nothing
// is staged.
func (o *outbox[M]) drain(d int, buf *ser.Buffer, codec ser.Codec[M]) {
	t := o.touched[d]
	if len(t) == 0 {
		return
	}
	o.vals = o.vals[:0]
	for _, li := range t {
		o.vals = append(o.vals, o.slot[d].val[li])
	}
	buf.WriteUvarint(uint64(len(t)))
	writeUpdates(buf, codec, t, o.vals)
	o.touched[d] = t[:0]
}
