package channel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
)

// segment is one ScatterSeg-shaped input of the kernels: runs over src
// delimited by end, gathering from n source values.
type segment struct {
	name     string
	n        int
	src, end []uint32
}

// kernelSegments returns the shapes a plan segment can take: empty, runs
// of length one, a single run covering every edge, seeded random runs,
// and every segment of the RMAT fragment plans.
func kernelSegments() []segment {
	rng := rand.New(rand.NewSource(3))
	random := func(name string, n, runs, maxLen int) segment {
		s := segment{name: name, n: n}
		for r := 0; r < runs; r++ {
			for k := 1 + rng.Intn(maxLen); k > 0; k-- {
				s.src = append(s.src, uint32(rng.Intn(n)))
			}
			s.end = append(s.end, uint32(len(s.src)))
		}
		return s
	}
	segs := []segment{
		{name: "empty", n: 4},
		random("runs of one", 50, 40, 1),
		random("one run", 50, 1, 1),
		{name: "one run over everything", n: 3, src: []uint32{0, 1, 2, 0, 1, 2, 2}, end: []uint32{7}},
		random("short runs", 300, 200, 4),
		random("long runs", 64, 30, 200),
	}
	g := graph.RMAT(10, 8, 5, graph.RMATOptions{NoSelfLoops: true})
	fs := frag.Build(g, partition.MustHash(g.NumVertices(), 3))
	for w := 0; w < 3; w++ {
		for _, to := range fs.Frag(w).ScatterPlan().To {
			segs = append(segs, segment{name: "rmat fragment", n: fs.Frag(w).LocalCount(), src: to.Src, end: to.End})
		}
	}
	return segs
}

// checkKernels holds the fold and merge loops of c against the sequences of scalar
// Combine calls they stand for: a left fold over each run in source
// order, and stamped.merge per delivered value. same compares results
// (bit patterns for floats: a sum that associates differently is a
// different answer).
func checkKernels[M any](t *testing.T, segs []segment, name string, c Combiner[M], gen func(*rand.Rand) M, same func(a, b M) bool) {
	rng := rand.New(rand.NewSource(7))
	for _, seg := range segs {
		val := make([]M, seg.n)
		for i := range val {
			val[i] = gen(rng)
		}
		got := make([]M, len(seg.end))
		c.fold(got, val, seg.src, seg.end)
		i := uint32(0)
		for k, e := range seg.end {
			want := val[seg.src[i]]
			for _, s := range seg.src[i+1 : e] {
				want = c.Combine(want, val[s])
			}
			i = e
			if !same(got[k], want) {
				t.Fatalf("%s, %s: fold run %d = %v, scalar fold %v", name, seg.name, k, got[k], want)
			}
		}

		// deliver the folded values twice (two source workers in one
		// epoch) to ascending slots of a table that holds stale values
		// everywhere and epoch-fresh ones in every third slot
		const epoch = 5
		slots := 2*len(got) + 1
		kernel, scalar := newStamped[M](slots), newStamped[M](slots)
		for li := 0; li < slots; li++ {
			v, e := gen(rng), int32(epoch-1-li%2)
			if li%3 == 0 {
				e = epoch
			}
			kernel.set(li, v, e)
			scalar.set(li, v, e)
		}
		idx := make([]uint32, len(got))
		for k := range idx {
			idx[k] = uint32(2*k + rng.Intn(2))
		}
		for round := 0; round < 2; round++ {
			c.merge(kernel.val, kernel.epoch, epoch, idx, got)
			for k, li := range idx {
				scalar.merge(int(li), got[k], epoch, c.Combine)
			}
		}
		for li := 0; li < slots; li++ {
			if kernel.epoch[li] != scalar.epoch[li] || !same(kernel.val[li], scalar.val[li]) {
				t.Fatalf("%s, %s: merge slot %d = (%v, epoch %d), stamped.merge (%v, epoch %d)", name, seg.name, li,
					kernel.val[li], kernel.epoch[li], scalar.val[li], scalar.epoch[li])
			}
		}
	}
}

func TestCombinerKernelsMatchScalarCombine(t *testing.T) {
	f64 := func(r *rand.Rand) float64 { return math.Ldexp(r.Float64()-0.5, r.Intn(60)-30) }
	u32 := func(r *rand.Rand) uint32 { return r.Uint32() }
	i64 := func(r *rand.Rand) int64 { return r.Int63() - 1<<62 }
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	eq := func(a, b uint32) bool { return a == b }
	eq64 := func(a, b int64) bool { return a == b }

	segs := kernelSegments()
	checkKernels(t, segs, "Sum[float64]", Sum[float64](), f64, bits)
	checkKernels(t, segs, "Sum[uint32]", Sum[uint32](), u32, eq)
	checkKernels(t, segs, "Sum[int64]", Sum[int64](), i64, eq64)
	checkKernels(t, segs, "Min[float64]", Min[float64](), f64, bits)
	checkKernels(t, segs, "Min[uint32]", Min[uint32](), u32, eq)
	checkKernels(t, segs, "Min[int64]", Min[int64](), i64, eq64)
	// a function that is neither commutative nor associative shows any
	// reordering or regrouping by the adapter's loops
	checkKernels(t, segs, "CombinerFunc", CombinerFunc(func(a, b float64) float64 { return a/3 - b }), f64, bits)

	// the built-in operations against their plain definitions
	for i, r := 0, rand.New(rand.NewSource(1)); i < 1000; i++ {
		a, b := f64(r), f64(r)
		if s := Sum[float64]().Combine(a, b); !bits(s, a+b) {
			t.Fatalf("Sum.Combine(%v, %v) = %v", a, b, s)
		}
		if m := Min[float64]().Combine(a, b); !bits(m, math.Min(a, b)) {
			t.Fatalf("Min.Combine(%v, %v) = %v", a, b, m)
		}
	}
}
