package bsp

import (
	"slices"

	"repro/internal/partition"
)

// Stamped is a table of per-vertex slots, each stamped with the
// superstep that wrote it instead of cleared between supersteps. A slot
// is fresh iff its stamp matches the expected step. With Updates, Outbox
// and Inbox it is what both engines stage and deliver through, indexed
// by a vertex's dense local index; the wire format is each engine's own.
type Stamped[T any] struct {
	Val   []T
	Epoch []int32
}

// NewStamped stamps every slot -1, a superstep that never runs (with 0,
// superstep 1 would read every slot as delivered the step before).
func NewStamped[T any](n int) Stamped[T] {
	s := Stamped[T]{Val: make([]T, n), Epoch: make([]int32, n)}
	for i := range s.Epoch {
		s.Epoch[i] = -1
	}
	return s
}

// Set stores v in slot i, stamped e.
func (s *Stamped[T]) Set(i int, v T, e int32) {
	s.Val[i] = v
	s.Epoch[i] = e
}

// Get returns slot i's value if it is stamped e.
func (s *Stamped[T]) Get(i int, e int32) (T, bool) {
	if s.Epoch[i] == e {
		return s.Val[i], true
	}
	var zero T
	return zero, false
}

// Merge delivers v to slot i in epoch e: the epoch's first value is
// stored, later ones are combined into it.
func (s *Stamped[T]) Merge(i int, v T, e int32, combine func(T, T) T) {
	if s.Epoch[i] == e {
		v = combine(s.Val[i], v)
	}
	s.Set(i, v, e)
}

// Updates holds (local index, value) pairs in the order they were
// added: messages staged for one destination worker, or a round's
// decoded arrivals.
type Updates[M any] struct {
	Idx  []uint32
	Vals []M
}

// Add appends one pair.
func (u *Updates[M]) Add(li uint32, m M) {
	if len(u.Vals) == cap(u.Vals) {
		u.grow()
	}
	u.Idx = append(u.Idx, li)
	u.Vals = append(u.Vals, m)
}

// grow doubles u's capacity, leaving both arrays the same capacity so
// that Add's check of one covers both. Staging and arrival lists live
// for a whole job and refill every superstep, so append's gentler growth
// of long slices would only copy them more often on the way to their
// size.
func (u *Updates[M]) grow() {
	n := max(2*len(u.Vals), 64)
	u.Idx = slices.Grow(u.Idx, n-len(u.Idx))
	u.Vals = slices.Grow(u.Vals, n-len(u.Vals))
	c := min(cap(u.Idx), cap(u.Vals))
	u.Idx, u.Vals = u.Idx[:len(u.Idx):c], u.Vals[:len(u.Vals):c]
}

// Reset empties u, keeping its arrays.
func (u *Updates[M]) Reset() { u.Idx, u.Vals = u.Idx[:0], u.Vals[:0] }

// Outbox is sender-side combining: per destination worker one value
// slot per vertex it hosts, stamped with the superstep that staged it,
// plus the staged indices in first-touch order. Staging is an array
// write and a stamp check. A superstep stages all its values before its
// first drain.
type Outbox[M any] struct {
	slot    []Stamped[M]
	touched [][]uint32
	vals    []M // Drain's scratch
}

// NewOutbox sizes an Outbox for the workers and local counts of p.
func NewOutbox[M any](p *partition.Partition) Outbox[M] {
	o := Outbox[M]{slot: make([]Stamped[M], p.NumWorkers()), touched: make([][]uint32, p.NumWorkers())}
	for d := range o.slot {
		o.slot[d] = NewStamped[M](p.LocalCount(d))
	}
	return o
}

// Stage combines m into the slot for local index li on worker d in
// superstep e.
func (o *Outbox[M]) Stage(d int, li uint32, m M, e int32, combine func(M, M) M) {
	s := &o.slot[d]
	if s.Epoch[li] == e {
		s.Val[li] = combine(s.Val[li], m)
		return
	}
	s.Val[li], s.Epoch[li] = m, e
	o.touched[d] = append(o.touched[d], li)
}

// Drain returns the indices staged for worker d in first-touch order
// and their values, and empties d's list. The indices are valid until
// the next Stage for d, the values until the next Drain.
func (o *Outbox[M]) Drain(d int) ([]uint32, []M) {
	t := o.touched[d]
	o.vals = o.vals[:0]
	for _, li := range t {
		o.vals = append(o.vals, o.slot[d].Val[li])
	}
	o.touched[d] = t[:0]
	return t, o.vals
}

// Inbox delivers uncombined messages: Rx collects a round's arrivals in
// the order they are decoded, and Group sorts them by receiver once the
// round is over, keeping that order within each receiver.
type Inbox[M any] struct {
	Rx   Updates[M]
	off  []uint64
	msgs []M   // Rx's values once grouped, until the next arrival
	step int32 // the superstep whose arrivals msgs holds
}

// NewInbox returns the inbox of n vertices.
func NewInbox[M any](n int) Inbox[M] {
	return Inbox[M]{off: make([]uint64, n+2), step: -1}
}

// Group moves the arrivals of superstep e into the inbox. With nothing
// arrived it leaves the inbox as it is, so a round that delivers none
// can call it too.
func (b *Inbox[M]) Group(e int32) {
	if len(b.Rx.Idx) > 0 {
		GroupInPlace(b.off, b.Rx.Idx, b.Rx.Vals)
		b.msgs, b.step = b.Rx.Vals, e
		b.Rx.Reset()
	}
}

// Messages returns the messages grouped for vertex li in superstep e,
// or nil if none arrived in e.
func (b *Inbox[M]) Messages(li int, e int32) []M {
	if b.step != e {
		return nil
	}
	return b.msgs[b.off[li]:b.off[li+1]]
}

// GroupInPlace is a stable counting sort of val by key, in place: group
// k ends up in val[off[k]:off[k+1]], in the order it had in val. off
// holds two more entries than there are groups; key is overwritten. A
// counting pass turns each key into its value's position — counts go
// two slots up, so after the prefix sum off[k+1] is k's fill cursor and
// the fill leaves off[k] at k's start — then the values follow the
// permutation's cycles.
func GroupInPlace[T any](off []uint64, key []uint32, val []T) {
	clear(off)
	for _, k := range key {
		off[k+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	for i, k := range key {
		key[i] = uint32(off[k+1])
		off[k+1]++
	}
	for i := range key {
		for p := key[i]; p != uint32(i); p = key[i] {
			val[i], val[p] = val[p], val[i]
			key[i], key[p] = key[p], p
		}
	}
}
