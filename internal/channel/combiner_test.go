package channel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
)

// segment is one plan segment as the kernels see it, beside the runs it
// stands for: runs[k] lists, in combine order, the sources of the
// destination at position k. n is the number of source values.
type segment struct {
	name   string
	n      int
	runs   [][]uint32
	src    []uint32
	groups []frag.ScatterGroup
}

// planSegment lays runs out with the plan builder: run k becomes the
// in-edges of vertex k of a single destination worker. Runs are sorted
// ascending first (duplicates stay), which is the order the builder
// gives a destination's sources.
func planSegment(name string, n int, runs [][]uint32) segment {
	offsets := make([]uint64, n+1)
	for _, run := range runs {
		slices.Sort(run)
		for _, s := range run {
			offsets[s+1]++
		}
	}
	for s := 0; s < n; s++ {
		offsets[s+1] += offsets[s]
	}
	adj := make([]frag.Addr, offsets[n])
	fill := slices.Clone(offsets[:n])
	for k, run := range runs {
		for _, s := range run {
			adj[fill[s]] = frag.Pack(0, uint32(k))
			fill[s]++
		}
	}
	seg := frag.NewScatterPlan([]int{len(runs)}, offsets, adj).To[0]
	return segment{name: name, n: n, runs: runs, src: seg.Src, groups: seg.Groups}
}

// kernelSegments returns the shapes a plan segment can take: empty, the
// ones that break lockstep code (fewer runs than lanes, a short last
// group, all runs of one, a hub run beside runs of one, all lengths
// equal, lengths one apart), seeded random runs, and every segment of
// the RMAT fragment plans.
func kernelSegments() []segment {
	rng := rand.New(rand.NewSource(3))
	shaped := func(name string, n int, lens ...int) segment {
		runs := make([][]uint32, len(lens))
		for k, l := range lens {
			for ; l > 0; l-- {
				runs[k] = append(runs[k], uint32(rng.Intn(n)))
			}
		}
		return planSegment(name, n, runs)
	}
	random := func(name string, n, runs, maxLen int) segment {
		lens := make([]int, runs)
		for k := range lens {
			lens[k] = 1 + rng.Intn(maxLen)
		}
		return shaped(name, n, lens...)
	}
	segs := []segment{
		{name: "empty", n: 4},
		shaped("one run", 50, 6),
		shaped("two runs", 50, 2, 9),
		shaped("three runs", 50, 4, 1, 4),
		shaped("five runs", 50, 3, 8, 1, 8, 2),
		random("runs of one", 50, 40, 1),
		shaped("one run over everything", 3, 7),
		shaped("a hub beside runs of one", 300, 1, 10000, 1, 1),
		shaped("equal lengths", 64, 5, 5, 5, 5, 5, 5, 5, 5),
		shaped("lengths one apart", 64, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		random("short runs", 300, 200, 4),
		random("long runs", 64, 30, 200),
	}
	g := graph.RMAT(10, 8, 5, graph.RMATOptions{NoSelfLoops: true})
	fs := frag.Build(g, partition.MustHash(g.NumVertices(), 3))
	for w := 0; w < 3; w++ {
		f := fs.Frag(w)
		for d, to := range f.ScatterPlan().To {
			in := make(map[uint32][]uint32)
			for li := 0; li < f.LocalCount(); li++ {
				for _, a := range f.Neighbors(li) {
					if a.Worker() == d {
						in[a.Local()] = append(in[a.Local()], uint32(li))
					}
				}
			}
			seg := segment{name: "rmat fragment", n: f.LocalCount(), src: to.Src, groups: to.Groups}
			for _, l := range to.Dst {
				seg.runs = append(seg.runs, in[l])
			}
			segs = append(segs, seg)
		}
	}
	return segs
}

// checkKernels holds the fold and merge loops of c against the sequences of scalar
// Combine calls they stand for: a left fold over each run in combine
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
		got := make([]M, len(seg.runs))
		c.fold(got, val, seg.src, seg.groups)
		for k, run := range seg.runs {
			want := val[run[0]]
			for _, s := range run[1:] {
				want = c.Combine(want, val[s])
			}
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
	f32 := func(r *rand.Rand) float32 { return float32(f64(r)) }
	nan64 := func(r *rand.Rand) float64 {
		if r.Intn(8) == 0 {
			return math.NaN()
		}
		return f64(r)
	}
	u32 := func(r *rand.Rand) uint32 { return r.Uint32() }
	i64 := func(r *rand.Rand) int64 { return r.Int63() - 1<<62 }
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	bits32 := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	bitsOrNaN := func(a, b float64) bool { return bits(a, b) || a != a && b != b }
	eq := func(a, b uint32) bool { return a == b }
	eq64 := func(a, b int64) bool { return a == b }

	segs := kernelSegments()
	checkKernels(t, segs, "Sum[float64]", Sum[float64](), f64, bits)
	checkKernels(t, segs, "Sum[float32]", Sum[float32](), f32, bits32)
	checkKernels(t, segs, "Sum[uint32]", Sum[uint32](), u32, eq)
	checkKernels(t, segs, "Sum[int64]", Sum[int64](), i64, eq64)
	checkKernels(t, segs, "Min[float64]", Min[float64](), f64, bits)
	checkKernels(t, segs, "Min[float64] with NaNs", Min[float64](), nan64, bitsOrNaN)
	checkKernels(t, segs, "Min[uint32]", Min[uint32](), u32, eq)
	checkKernels(t, segs, "Min[int64]", Min[int64](), i64, eq64)
	// a function that is neither commutative nor associative shows any
	// reordering or regrouping by the adapter's loops
	checkKernels(t, segs, "CombinerFunc", CombinerFunc(func(a, b float64) float64 { return a/3 - b }), f64, bits)
	// a struct-valued message: the trail records every value combined and
	// in which order
	type trail struct {
		n    int
		hash uint64
	}
	checkKernels(t, segs, "CombinerFunc over a struct",
		CombinerFunc(func(a, b trail) trail { return trail{a.n + b.n, a.hash*1099511628211 ^ b.hash} }),
		func(r *rand.Rand) trail { return trail{1, r.Uint64()} },
		func(a, b trail) bool { return a == b })

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
