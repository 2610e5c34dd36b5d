package channel

import (
	"cmp"

	"repro/internal/frag"
)

// Combiner merges message values addressed to the same destination
// (paper §II-A). The operation must be commutative and associative: the
// engine makes no ordering promises across workers.
//
// A Combiner is a reducer that carries its own loops. Besides the scalar
// Combine it holds the two loops ScatterCombine runs per (peer worker,
// superstep) — a run fold and an indexed merge — and the two Propagation
// runs per vertex pushed and per frame received — relax and absorb — so
// the channel calls the combiner once per frame or row and the operation
// is compiled into the loop. The paper's C++ channels get that from templates, which inline
// the user's combiner into the scan over the pre-calculated plan
// (§IV-C1); Go instantiates generic code per memory layout, not per
// function value, so a func-typed combiner costs an indirect call per
// edge however the channel is written. A loop that belongs to the
// operation closes that gap — Sum and Min bring loops over a native add
// and min — and only a pre-calculated plan gives such a loop something
// to run over: frag.ScatterPlan (Fig. 5) lays every destination's
// sources out as one run before the values exist, frag.PushPlan (Fig. 7)
// every vertex's neighbours as one row of table indices. The other
// combining channels learn their destinations one Send at a time and
// call Combine per message.
//
// The loops must equal the sequences of Combine calls they stand for,
// bit for bit, which is why they are not open to callers: Sum and Min
// are the built-in operations, and CombinerFunc derives the loops of any
// other operation or message type from a plain function. Combine is a
// plain function value, so the baseline engine's func-typed
// Config.Combiner takes it as it is.
type Combiner[M any] struct {
	// Combine merges two values.
	Combine func(M, M) M
	// fold reduces the runs of one plan segment (frag.ScatterSeg's Src and
	// Groups): out[g.Pos[i]] becomes the combination of val[s] over the
	// sources s of lane i's run, left to right, so a float sum rounds the
	// same way on every run of every job. The lanes of a group advance one
	// column per step — frag.Lanes independent chains instead of one whose
	// every add waits for the previous — but no chain is reordered or
	// split.
	fold func(out, val []M, src []uint32, groups []frag.ScatterGroup)
	// merge delivers in[k] to slot idx[k] of an epoch-stamped table: the
	// first value a slot receives in epoch e is stored, later ones are
	// combined into it as Combine(stored, incoming).
	merge func(val []M, epoch []int32, e int32, idx []uint32, in []M)
	// relax pushes v along one row of a frag.PushPlan and absorb delivers
	// in[k] to target idx[k] — a decoded frame, or a weighted row's
	// transformed values. Either way a target without a value takes the
	// incoming one, a target with one takes Combine(held, incoming), and
	// a target whose value that changed (see changed) goes on its work
	// list through pushState.moved. Min brings both; Propagation derives
	// them from Combine for a combiner that leaves them nil.
	relax  func(s *pushState[M], v M, row []uint32)
	absorb func(s *pushState[M], idx []uint32, in []M)
}

// Number is the set of types Sum adds natively.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// Sum returns the addition combiner.
func Sum[M Number]() Combiner[M] {
	// Combine is a literal, not a named generic function: the value of
	// one is a wrapper that passes its dictionary on in a second call.
	return Combiner[M]{Combine: func(x, y M) M { return x + y }, fold: foldSum[M], merge: mergeSum[M]}
}

// foldSum and foldMin are the same text but for the operator: the
// operation has to be spelled in the loop to be compiled into it.
func foldSum[M Number](out, val []M, src []uint32, groups []frag.ScatterGroup) {
	i := 0
	for gi := range groups {
		g := &groups[gi]
		l1, l2, l3 := g.Len[1], g.Len[2], g.Len[3]
		if l3 == 0 { // a segment's last group may lack lanes
			foldGroup(func(x, y M) M { return x + y }, out, val, src[i:], g)
			break
		}
		// column 0, then four lanes a column, three, two, one as the
		// shorter runs end
		s := src[i : i+4 : i+4]
		a0, a1, a2, a3 := val[s[0]], val[s[1]], val[s[2]], val[s[3]]
		i += 4
		j := uint32(1)
		for ; j < l3; j++ {
			s := src[i : i+4 : i+4]
			a0, a1, a2, a3 = a0+val[s[0]], a1+val[s[1]], a2+val[s[2]], a3+val[s[3]]
			i += 4
		}
		for ; j < l2; j++ {
			s := src[i : i+3 : i+3]
			a0, a1, a2 = a0+val[s[0]], a1+val[s[1]], a2+val[s[2]]
			i += 3
		}
		for ; j < l1; j++ {
			s := src[i : i+2 : i+2]
			a0, a1 = a0+val[s[0]], a1+val[s[1]]
			i += 2
		}
		for ; j < g.Len[0]; j++ {
			a0 = a0 + val[src[i]]
			i++
		}
		out[g.Pos[0]], out[g.Pos[1]], out[g.Pos[2]], out[g.Pos[3]] = a0, a1, a2, a3
	}
}

func mergeSum[M Number](val []M, epoch []int32, e int32, idx []uint32, in []M) {
	for k, li := range idx {
		v := in[k]
		if epoch[li] == e {
			v = val[li] + v
		}
		val[li], epoch[li] = v, e
	}
}

// Min returns the minimum combiner (the built-in min: a NaN wins).
func Min[M cmp.Ordered]() Combiner[M] {
	return Combiner[M]{Combine: func(x, y M) M { return min(x, y) }, fold: foldMin[M], merge: mergeMin[M],
		relax: relaxMin[M], absorb: absorbMin[M]}
}

func foldMin[M cmp.Ordered](out, val []M, src []uint32, groups []frag.ScatterGroup) {
	i := 0
	for gi := range groups {
		g := &groups[gi]
		l1, l2, l3 := g.Len[1], g.Len[2], g.Len[3]
		if l3 == 0 { // a segment's last group may lack lanes
			foldGroup(func(x, y M) M { return min(x, y) }, out, val, src[i:], g)
			break
		}
		// column 0, then four lanes a column, three, two, one as the
		// shorter runs end
		s := src[i : i+4 : i+4]
		a0, a1, a2, a3 := val[s[0]], val[s[1]], val[s[2]], val[s[3]]
		i += 4
		j := uint32(1)
		for ; j < l3; j++ {
			s := src[i : i+4 : i+4]
			a0, a1, a2, a3 = min(a0, val[s[0]]), min(a1, val[s[1]]), min(a2, val[s[2]]), min(a3, val[s[3]])
			i += 4
		}
		for ; j < l2; j++ {
			s := src[i : i+3 : i+3]
			a0, a1, a2 = min(a0, val[s[0]]), min(a1, val[s[1]]), min(a2, val[s[2]])
			i += 3
		}
		for ; j < l1; j++ {
			s := src[i : i+2 : i+2]
			a0, a1 = min(a0, val[s[0]]), min(a1, val[s[1]])
			i += 2
		}
		for ; j < g.Len[0]; j++ {
			a0 = min(a0, val[src[i]])
			i++
		}
		out[g.Pos[0]], out[g.Pos[1]], out[g.Pos[2]], out[g.Pos[3]] = a0, a1, a2, a3
	}
}

func mergeMin[M cmp.Ordered](val []M, epoch []int32, e int32, idx []uint32, in []M) {
	for k, li := range idx {
		v := in[k]
		if epoch[li] == e {
			v = min(val[li], v)
		}
		val[li], epoch[li] = v, e
	}
}

// relaxMin and absorbMin are relaxWith and absorbWith over a native
// compare: the traversal of a WCC, SSSP or Min-Label propagation calls
// no function per edge.
func relaxMin[M cmp.Ordered](s *pushState[M], v M, row []uint32) {
	val, st := s.val, s.st
	for _, t := range row {
		nv := v
		if old := val[t]; st[t]&pvHas != 0 {
			if nv = min(old, v); !changed(old, nv) {
				continue
			}
		}
		val[t] = nv
		s.moved(t)
	}
}

func absorbMin[M cmp.Ordered](s *pushState[M], idx []uint32, in []M) {
	val, st := s.val, s.st
	for k, t := range idx {
		nv := in[k]
		if old := val[t]; st[t]&pvHas != 0 {
			if nv = min(old, nv); !changed(old, nv) {
				continue
			}
		}
		val[t] = nv
		s.moved(t)
	}
}

// CombinerFunc adapts a plain function to a Combiner, for message types
// and operations Sum and Min do not cover (a struct-valued candidate, a
// logical or). Its loops call f once per value.
func CombinerFunc[M any](f func(M, M) M) Combiner[M] {
	return Combiner[M]{
		Combine: f,
		fold: func(out, val []M, src []uint32, groups []frag.ScatterGroup) {
			for gi := range groups {
				src = src[foldGroup(f, out, val, src, &groups[gi]):]
			}
		},
		merge: func(val []M, epoch []int32, e int32, idx []uint32, in []M) {
			for k, li := range idx {
				v := in[k]
				if epoch[li] == e {
					v = f(val[li], v)
				}
				val[li], epoch[li] = v, e
			}
		},
	}
}

// foldGroup folds one group, which starts at src[0], a value at a time
// and returns the number of sources it read: the fold of CombinerFunc,
// and of Sum and Min where a group has fewer than frag.Lanes runs.
func foldGroup[M any](f func(M, M) M, out, val []M, src []uint32, g *frag.ScatterGroup) int {
	var acc [frag.Lanes]M
	i, j := 0, uint32(0)
	for live := frag.Lanes; live > 0; live-- {
		for ; j < g.Len[live-1]; j++ {
			for lane, s := range src[i : i+live] {
				if j == 0 {
					acc[lane] = val[s]
				} else {
					acc[lane] = f(acc[lane], val[s])
				}
			}
			i += live
		}
	}
	for lane, n := range g.Len {
		if n > 0 {
			out[g.Pos[lane]] = acc[lane]
		}
	}
	return i
}
