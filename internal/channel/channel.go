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

func newStamped[T any](n int) stamped[T] {
	return stamped[T]{val: make([]T, n), epoch: make([]int32, n)}
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

// csr groups the registered edges by source with a stable counting
// sort: a CSR over n local vertices, each vertex's addresses in
// registration order. Counts go two slots up, so after the prefix sum
// offsets[s+1] is s's fill cursor and the fill leaves it at s's end —
// no copy of the offsets to fill from.
func (r *edgeReg) csr(n int) (offsets []uint64, adj []frag.Addr) {
	offsets = make([]uint64, n+2)
	for _, s := range r.src {
		offsets[s+2]++
	}
	for i := 2; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	adj = make([]frag.Addr, len(r.addr))
	for i, s := range r.src {
		adj[offsets[s+1]] = r.addr[i]
		offsets[s+1]++
	}
	return offsets[:n+1], adj
}

// denseOut is the dense per-destination-worker staging area shared by
// the combining channels: one value slot per remote vertex, addressed by
// the vertex's local index on its owner (the Partition gives every
// vertex a dense (owner, localIndex) pair). Staging a message is an
// array write plus a generation-stamp check — no hashing — and the wire
// format ships (localIndex, value) pairs so the receiver also indexes
// straight into flat slices. Slots are invalidated by bumping the
// per-destination generation instead of clearing arrays, so a drained
// staging area is reusable immediately at zero cost.
type denseOut[M any] struct {
	val     [][]M      // per dst worker: remote local index -> staged value
	stamp   [][]uint32 // per dst worker: generation that wrote the slot
	touched [][]uint32 // per dst worker: staged local indices, first-touch order
	gen     []uint32   // per dst worker: current staging generation
}

func newDenseOut[M any](w *engine.Worker) denseOut[M] {
	m := w.NumWorkers()
	part := w.Part()
	d := denseOut[M]{
		val:     make([][]M, m),
		stamp:   make([][]uint32, m),
		touched: make([][]uint32, m),
		gen:     make([]uint32, m),
	}
	for o := 0; o < m; o++ {
		n := part.LocalCount(o)
		d.val[o] = make([]M, n)
		d.stamp[o] = make([]uint32, n)
		d.gen[o] = 1
	}
	return d
}

// stage combines m into the slot for local index li on worker o.
func (d *denseOut[M]) stage(o int, li uint32, m M, combine func(M, M) M) {
	if d.stamp[o][li] == d.gen[o] {
		d.val[o][li] = combine(d.val[o][li], m)
		return
	}
	d.stamp[o][li] = d.gen[o]
	d.val[o][li] = m
	d.touched[o] = append(d.touched[o], li)
}

// drain writes worker o's staged messages as a count followed by
// (localIndex, value) pairs, then resets the staging area by advancing
// its generation. Writes nothing when nothing is staged.
func (d *denseOut[M]) drain(o int, buf *ser.Buffer, codec ser.Codec[M]) {
	t := d.touched[o]
	if len(t) == 0 {
		return
	}
	buf.WriteUvarint(uint64(len(t)))
	val := d.val[o]
	for _, li := range t {
		buf.WriteUvarint(uint64(li))
		codec.Encode(buf, val[li])
	}
	d.touched[o] = t[:0]
	d.gen[o]++
	if d.gen[o] == 0 { // wrapped: clear stamps so no stale slot can match
		clear(d.stamp[o])
		d.gen[o] = 1
	}
}
