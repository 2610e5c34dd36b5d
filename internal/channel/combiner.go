package channel

import "cmp"

// Combiner merges message values addressed to the same destination
// (paper §II-A). The operation must be commutative and associative: the
// engine makes no ordering promises across workers.
//
// A Combiner is a reducer that carries its own loops. Besides the scalar
// Combine it holds the two loops ScatterCombine runs per (peer worker,
// superstep) — a run fold and an indexed merge — so the channel calls
// the combiner once per frame and the operation is compiled into the
// loop. The paper's C++ channels get that from templates, which inline
// the user's combiner into the scan over the pre-calculated plan
// (§IV-C1); Go instantiates generic code per memory layout, not per
// function value, so a func-typed combiner costs an indirect call per
// edge however the channel is written. A loop that belongs to the
// operation closes that gap — Sum and Min bring loops over a native add
// and min — and only a pre-calculated plan (frag.ScatterPlan, Fig. 5)
// gives such a loop something to run over: every destination's sources
// laid out as one run before the values exist. The other combining
// channels learn their destinations one Send at a time and call Combine
// per message.
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
	// fold reduces the runs of one plan segment: run k is
	// src[end[k-1]:end[k]] (run 0 starts at 0, no run is empty) and out[k]
	// becomes the combination of val[s] over the run's sources s, left to
	// right, so a float sum rounds the same way on every run of every job.
	fold func(out, val []M, src, end []uint32)
	// merge delivers in[k] to slot idx[k] of an epoch-stamped table: the
	// first value a slot receives in epoch e is stored, later ones are
	// combined into it as Combine(stored, incoming).
	merge func(val []M, epoch []int32, e int32, idx []uint32, in []M)
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

func foldSum[M Number](out, val []M, src, end []uint32) {
	i := uint32(0)
	for k, e := range end {
		acc := val[src[i]]
		for _, s := range src[i+1 : e] {
			acc += val[s]
		}
		out[k], i = acc, e
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
	return Combiner[M]{Combine: func(x, y M) M { return min(x, y) }, fold: foldMin[M], merge: mergeMin[M]}
}

func foldMin[M cmp.Ordered](out, val []M, src, end []uint32) {
	i := uint32(0)
	for k, e := range end {
		acc := val[src[i]]
		for _, s := range src[i+1 : e] {
			acc = min(acc, val[s])
		}
		out[k], i = acc, e
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

// CombinerFunc adapts a plain function to a Combiner, for message types
// and operations Sum and Min do not cover (a struct-valued candidate, a
// logical or). Its loops call f once per value.
func CombinerFunc[M any](f func(M, M) M) Combiner[M] {
	return Combiner[M]{
		Combine: f,
		fold: func(out, val []M, src, end []uint32) {
			i := uint32(0)
			for k, e := range end {
				acc := val[src[i]]
				for _, s := range src[i+1 : e] {
					acc = f(acc, val[s])
				}
				out[k], i = acc, e
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
