// Package channel provides the communication-channel library of the
// paper: the standard channels of Table I (DirectMessage,
// CombinedMessage, Aggregator) and the optimized channels of Table II
// (ScatterCombine, RequestRespond, Propagation). Channels are the only
// communication mechanism of the engine; an algorithm composes whichever
// channels match its communication patterns, which is how different
// optimizations coexist in one program (the paper's core contribution,
// demonstrated on S-V in §III-C).
//
// Aggregator is the exception: it is the superstep driver's aggregator,
// shared with the Pregel baseline, and registers on the worker's core
// instead of as an exchange channel — its partials ride round 1's
// barrier crossing, not a frame.
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

	"repro/internal/bsp"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/ser"
)

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
	offsets, adj = make([]uint64, n+2), slices.Clone(r.addr)
	bsp.GroupInPlace(offsets, slices.Clone(r.src), adj)
	return offsets[:n+1], adj
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

// readLast appends to u the section of m updates that ends the frame
// at the front of buf and returns it; m was bounded when it was read
// (ReadCount or a narrower check). An index not below bound, a value
// past the end or bytes beyond the values panic, and the engine reports
// that as a worker error naming the channel and the source.
func readLast[M any](u *bsp.Updates[M], buf *ser.Buffer, codec ser.Codec[M], m int, bound uint32) ([]uint32, []M) {
	k := len(u.Idx)
	u.Idx = slices.Grow(u.Idx, m)[:k+m]
	u.Vals = slices.Grow(u.Vals, m)[:k+m]
	idx, vals := u.Idx[k:], u.Vals[k:]
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
func deliver[M any](w *engine.Worker, c Combiner[M], in *bsp.Stamped[M], e int32, idx []uint32, vals []M) {
	c.merge(in.Val, in.Epoch, e, idx, vals)
	for _, li := range idx {
		w.ActivateLocal(int(li))
	}
}
