package frag

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/partition"
)

// testGraphs returns the generator shapes of the equivalence sweep:
// RMAT, chain, tree, grid.
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat":  graph.RMAT(8, 5, 42, graph.RMATOptions{NoSelfLoops: true}),
		"chain": graph.Chain(501),
		"tree":  graph.RandomTree(300, 7),
		"grid":  graph.Grid(13, 17, 50, 9),
	}
}

func testPartitions(t *testing.T, g *graph.Graph, workers int) map[string]*partition.Partition {
	t.Helper()
	hash, err := partition.Hash(g.NumVertices(), workers)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := partition.Greedy(g, workers)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*partition.Partition{"hash": hash, "greedy": greedy}
}

func TestAddrPackRoundTrip(t *testing.T) {
	cases := []struct {
		worker int
		local  uint32
	}{
		{0, 0}, {1, 1}, {7, 123456}, {65534, 0xFFFFFFFF}, {255, 1 << 31},
	}
	for _, c := range cases {
		a := Pack(c.worker, c.local)
		if a.Worker() != c.worker || a.Local() != c.local {
			t.Errorf("Pack(%d,%d) round-tripped to (%d,%d)", c.worker, c.local, a.Worker(), a.Local())
		}
	}
}

func TestAddrOrderIsWorkerLocalOrder(t *testing.T) {
	// raw Addr order must equal lexicographic (worker, local) order
	if !(Pack(0, 0xFFFFFFFF) < Pack(1, 0)) {
		t.Error("addr order broken across workers")
	}
	if !(Pack(3, 5) < Pack(3, 6)) {
		t.Error("addr order broken within a worker")
	}
}

// Every packed adjacency entry must round-trip against the partition's
// Owner/LocalIndex for every generator shape under both placements.
func TestFragmentAddressesMatchPartition(t *testing.T) {
	for gname, g := range testGraphs() {
		for _, workers := range []int{1, 3, 8} {
			for pname, p := range testPartitions(t, g, workers) {
				fs := Build(g, p)
				if fs.NumWorkers() != workers {
					t.Fatalf("%s/%s: %d fragments for %d workers", gname, pname, fs.NumWorkers(), workers)
				}
				totalVerts, totalEdges := 0, 0
				for w := 0; w < workers; w++ {
					f := fs.Frag(w)
					if f.WorkerID() != w || f.NumWorkers() != workers || f.NumVertices() != g.NumVertices() {
						t.Fatalf("%s/%s: fragment %d misdescribes itself", gname, pname, w)
					}
					if f.LocalCount() != p.LocalCount(w) {
						t.Fatalf("%s/%s w%d: local count %d want %d", gname, pname, w, f.LocalCount(), p.LocalCount(w))
					}
					totalVerts += f.LocalCount()
					totalEdges += f.NumEdges()
					for li := 0; li < f.LocalCount(); li++ {
						id := f.GlobalID(li)
						if id != p.GlobalID(w, li) {
							t.Fatalf("%s/%s w%d li%d: global id %d want %d", gname, pname, w, li, id, p.GlobalID(w, li))
						}
						nbrs := g.Neighbors(id)
						addrs := f.Neighbors(li)
						if len(addrs) != len(nbrs) || f.OutDegree(li) != len(nbrs) {
							t.Fatalf("%s/%s w%d li%d: degree %d want %d", gname, pname, w, li, len(addrs), len(nbrs))
						}
						for i, v := range nbrs {
							a := addrs[i]
							if a.Worker() != p.Owner(v) || int(a.Local()) != p.LocalIndex(v) {
								t.Fatalf("%s/%s w%d edge %d->%d: addr (%d,%d) want (%d,%d)",
									gname, pname, w, id, v, a.Worker(), a.Local(), p.Owner(v), p.LocalIndex(v))
							}
							if a != Of(p, v) {
								t.Fatalf("%s/%s: Of disagrees with packed adjacency", gname, pname)
							}
						}
						if g.Weighted() {
							ws := f.NeighborWeights(li)
							want := g.NeighborWeights(id)
							for i := range want {
								if ws[i] != want[i] {
									t.Fatalf("%s/%s w%d li%d: weight %d want %d", gname, pname, w, li, ws[i], want[i])
								}
							}
						}
					}
				}
				if totalVerts != g.NumVertices() || totalEdges != g.NumEdges() {
					t.Fatalf("%s/%s: fragments cover %d vertices / %d edges, want %d / %d",
						gname, pname, totalVerts, totalEdges, g.NumVertices(), g.NumEdges())
				}
			}
		}
	}
}

func TestFragmentWeightedFlag(t *testing.T) {
	grid := graph.Grid(5, 5, 10, 1)
	p := partition.MustHash(grid.NumVertices(), 2)
	fs := Build(grid, p)
	if !fs.Frag(0).Weighted() {
		t.Error("weighted grid fragment lost its weights")
	}
	chain := graph.Chain(10)
	fs2 := Build(chain, partition.MustHash(chain.NumVertices(), 2))
	if fs2.Frag(0).Weighted() {
		t.Error("unweighted chain fragment claims weights")
	}
	defer func() {
		if recover() == nil {
			t.Error("NeighborWeights on unweighted fragment did not panic")
		}
	}()
	fs2.Frag(0).NeighborWeights(0)
}

func TestFragmentsBytes(t *testing.T) {
	g := graph.Chain(100)
	fs := Build(g, partition.MustHash(g.NumVertices(), 4))
	if fs.Bytes() <= 0 {
		t.Error("Bytes() reported nothing resident")
	}
}

// The derived transpose must match fragments built from graph.Reverse
// edge-for-edge (as multisets per vertex), carry weights, and be cached.
func TestFragmentsReverse(t *testing.T) {
	for gname, g := range testGraphs() {
		p := partition.MustHash(g.NumVertices(), 4)
		fs := Build(g, p)
		rev := fs.Reverse()
		if fs.Reverse() != rev {
			t.Fatalf("%s: transpose not cached", gname)
		}
		want := Build(g.Reverse(), p)
		for w := 0; w < 4; w++ {
			rf, wf := rev.Frag(w), want.Frag(w)
			if rf.NumEdges() != wf.NumEdges() || rf.LocalCount() != wf.LocalCount() {
				t.Fatalf("%s w%d: shape %d/%d want %d/%d", gname, w, rf.NumEdges(), rf.LocalCount(), wf.NumEdges(), wf.LocalCount())
			}
			if rf.Weighted() != wf.Weighted() {
				t.Fatalf("%s w%d: weighted mismatch", gname, w)
			}
			for li := 0; li < rf.LocalCount(); li++ {
				got := map[[2]uint64]int{}
				for i, a := range rf.Neighbors(li) {
					k := [2]uint64{uint64(a), 0}
					if rf.Weighted() {
						k[1] = uint64(uint32(rf.NeighborWeights(li)[i]))
					}
					got[k]++
				}
				for i, a := range wf.Neighbors(li) {
					k := [2]uint64{uint64(a), 0}
					if wf.Weighted() {
						k[1] = uint64(uint32(wf.NeighborWeights(li)[i]))
					}
					got[k]--
					if got[k] == 0 {
						delete(got, k)
					}
					_ = i
				}
				if len(got) != 0 {
					t.Fatalf("%s w%d li%d: reverse adjacency differs: %v", gname, w, li, got)
				}
			}
		}
	}
}

// The scatter plan must be the destination-sorted transpose of the
// fragment's adjacency — runs in ascending destination order, sources
// ascending within a run — for every generator shape and placement,
// cached on the fragment and charged to the derive hook exactly once
// however many workers ask for it concurrently.
func TestScatterPlanMatchesSortedEdges(t *testing.T) {
	for gname, g := range testGraphs() {
		for pname, p := range testPartitions(t, g, 3) {
			fs := Build(g, p)
			var mu sync.Mutex
			var charged []int64
			fs.DeriveHook = func(b int64) {
				mu.Lock()
				charged = append(charged, b)
				mu.Unlock()
			}
			for w := 0; w < fs.NumWorkers(); w++ {
				f := fs.Frag(w)
				plans := make([]*ScatterPlan, 4)
				var wg sync.WaitGroup
				for i := range plans {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						plans[i] = f.ScatterPlan()
					}(i)
				}
				wg.Wait()
				plan := plans[0]
				for _, other := range plans[1:] {
					if other != plan {
						t.Fatalf("%s/%s w%d: plan not cached", gname, pname, w)
					}
				}
				if len(charged) != w+1 || charged[w] != plan.Bytes() || plan.Bytes() <= 0 {
					t.Fatalf("%s/%s w%d: derive hook charged %v, plan holds %d bytes", gname, pname, w, charged, plan.Bytes())
				}

				type edge struct{ dst, src uint32 }
				want := make([][]edge, fs.NumWorkers())
				var sources []uint32
				for li := 0; li < f.LocalCount(); li++ {
					if f.OutDegree(li) > 0 {
						sources = append(sources, uint32(li))
					}
					for _, a := range f.Neighbors(li) {
						want[a.Worker()] = append(want[a.Worker()], edge{a.Local(), uint32(li)})
					}
				}
				if !slices.Equal(plan.Sources, sources) {
					t.Fatalf("%s/%s w%d: sources differ", gname, pname, w)
				}
				for d := range plan.To {
					seg := &plan.To[d]
					slices.SortStableFunc(want[d], func(a, b edge) int { return cmp.Compare(a.dst, b.dst) })
					var got []edge
					for k, run := range laneRuns(t, seg) {
						for _, s := range run {
							got = append(got, edge{seg.Dst[k], s})
						}
					}
					if !slices.Equal(got, want[d]) {
						t.Fatalf("%s/%s w%d->%d: plan is not the sorted transpose", gname, pname, w, d)
					}
				}
			}
		}
	}
}

// laneRuns walks a segment's lanes back out: per Dst position, the
// sources in the order a fold combines them. It fails the test on a
// group table no kernel could walk: lengths that increase, a Dst
// position no lane or more than one lane writes, lengths that do not
// add up to Src.
func laneRuns(t *testing.T, seg *ScatterSeg) [][]uint32 {
	t.Helper()
	runs := make([][]uint32, len(seg.Dst))
	prev, i := ^uint32(0), 0
	for gi, g := range seg.Groups {
		for lane, n := range g.Len {
			if n > prev || n == 0 && (gi != len(seg.Groups)-1 || lane == 0) {
				t.Fatalf("group %d of %d: lengths %v after a run of %d", gi, len(seg.Groups), g.Len, prev)
			}
			prev = n
			if n > 0 {
				if k := g.Pos[lane]; int(k) >= len(runs) || runs[k] != nil {
					t.Fatalf("group %d lane %d writes position %d of %d, written %v", gi, lane, k, len(runs), runs[k] != nil)
				}
				runs[g.Pos[lane]] = make([]uint32, 0, n)
			}
		}
		for j := uint32(0); j < g.Len[0]; j++ {
			for lane := 0; lane < Lanes && g.Len[lane] > j; lane++ {
				runs[g.Pos[lane]] = append(runs[g.Pos[lane]], seg.Src[i])
				i++
			}
		}
	}
	if i != len(seg.Src) {
		t.Fatalf("group lengths add up to %d, Src holds %d", i, len(seg.Src))
	}
	for k, run := range runs {
		if run == nil {
			t.Fatalf("no lane writes position %d", k)
		}
	}
	return runs
}

// The layout properties the fold kernels and the wire rely on, over the
// graph shapes that stress them (skew, all runs of one, one hub run
// beside runs of one, no edges at all) under both placements and worker
// counts that leave full, short and empty last groups: Dst strictly
// ascending, a walkable group table (laneRuns), every destination's run
// its in-edges in ascending source order, a deterministic build, and
// Bytes counting every resident word.
func TestScatterPlanLayoutProperties(t *testing.T) {
	star := make([]graph.Edge, 0, 400)
	for v := 1; v <= 200; v++ {
		star = append(star, graph.Edge{Src: graph.VertexID(v), Dst: 0}, graph.Edge{Src: 0, Dst: graph.VertexID(v)})
	}
	graphs := testGraphs()
	graphs["star"] = graph.FromEdges(201, star, false)
	graphs["empty"] = graph.FromEdges(9, nil, false)
	for gname, g := range graphs {
		for _, workers := range []int{1, 3, 4, 7} {
			for pname, p := range testPartitions(t, g, workers) {
				fs, again := Build(g, p), Build(g, p)
				for w := 0; w < workers; w++ {
					f := fs.Frag(w)
					plan := f.ScatterPlan()
					if !reflect.DeepEqual(plan, again.Frag(w).ScatterPlan()) {
						t.Fatalf("%s/%s/%d w%d: two builds differ", gname, pname, workers, w)
					}
					words := len(plan.Sources)
					for d := range plan.To {
						seg := &plan.To[d]
						name := fmt.Sprintf("%s/%s/%d w%d->%d", gname, pname, workers, w, d)
						words += len(seg.Dst) + len(seg.Src) + len(seg.Groups)*int(unsafe.Sizeof(ScatterGroup{})/4)
						if !slices.IsSorted(seg.Dst) || len(slices.Compact(slices.Clone(seg.Dst))) != len(seg.Dst) {
							t.Fatalf("%s: destinations not strictly ascending", name)
						}
						if len(seg.Groups) != (len(seg.Dst)+Lanes-1)/Lanes {
							t.Fatalf("%s: %d groups for %d destinations", name, len(seg.Groups), len(seg.Dst))
						}
						want := make(map[uint32][]uint32)
						for li := 0; li < f.LocalCount(); li++ {
							for _, a := range f.Neighbors(li) {
								if a.Worker() == d {
									want[a.Local()] = append(want[a.Local()], uint32(li))
								}
							}
						}
						runs := laneRuns(t, seg)
						if len(runs) != len(want) {
							t.Fatalf("%s: %d runs, %d destinations have in-edges", name, len(runs), len(want))
						}
						for k, run := range runs {
							if !slices.Equal(run, want[seg.Dst[k]]) {
								t.Fatalf("%s: destination %d combines sources %v, in-edges are %v", name, seg.Dst[k], run, want[seg.Dst[k]])
							}
						}
					}
					if plan.Bytes() != int64(4*words) {
						t.Fatalf("%s/%s/%d w%d: Bytes() = %d, plan holds %d words", gname, pname, workers, w, plan.Bytes(), words)
					}
				}
			}
		}
	}
}

// A transpose's plans are charged to the same hook as the forward set's.
func TestReverseFragmentsChargeScatterPlan(t *testing.T) {
	g := graph.RMAT(7, 4, 3, graph.RMATOptions{NoSelfLoops: true})
	fs := Build(g, partition.MustHash(g.NumVertices(), 2))
	var charged int64
	fs.DeriveHook = func(b int64) { charged += b }
	rev := fs.Reverse()
	before := charged
	if plan := rev.Frag(1).ScatterPlan(); charged-before != plan.Bytes() {
		t.Fatalf("reverse fragment plan of %d bytes charged %d", plan.Bytes(), charged-before)
	}
}

// reweighted returns g with every edge weighted by its position, or
// with no weights at all.
func reweighted(g *graph.Graph, weighted bool) *graph.Graph {
	c := *g
	c.Weights = nil
	if weighted {
		c.Weights = make([]int32, len(g.Adj))
		for i := range c.Weights {
			c.Weights[i] = int32(i%97) + 1
		}
	}
	return &c
}

// The layout the propagation kernels and the wire rely on, over the
// shapes of TestScatterPlanLayoutProperties, weighted and not: a row is
// its vertex's adjacency edge for edge — a local neighbour its own local
// index, a remote one Locals plus the slot that stands for it — so rows
// partition the edges into local and remote pushes in adjacency order;
// slots are dense, grouped by owner and strictly ascending by local
// index within one, with none for the worker itself; the weights stay
// parallel; an unweighted plan has local components exactly when its
// local part is symmetric, and then they are checkLocalComponents'; a
// builder transposes an unweighted plan only when each local vertex has
// as many local edges in as out, and a plan that passes that count still
// has to pass the symmetry check; the build is deterministic, cached and
// charged once; Bytes counts every word the plan adds to the fragment,
// component tables included; and the builder makes the same plan of the
// same edges registered one at a time, in any vertex order, however
// often it is reused. Undirected graphs — an undirected R-MAT, the grid,
// the star — get components under greedy placement as under hash; the
// directed R-MAT does not, and neither do 84 directed 4-cycles, v → v+84
// mod 336, whose local part under hash placement is whole cycles: every
// local vertex has one local edge in and one out, and none has its
// reverse.
func TestPushPlanLayoutProperties(t *testing.T) {
	star := make([]graph.Edge, 0, 400)
	for v := 1; v <= 200; v++ {
		star = append(star, graph.Edge{Src: graph.VertexID(v), Dst: 0}, graph.Edge{Src: 0, Dst: graph.VertexID(v)})
	}
	graphs := testGraphs()
	graphs["star"] = graph.FromEdges(201, star, false)
	graphs["empty"] = graph.FromEdges(9, nil, false)
	graphs["rmat-undirected"] = graph.Undirectify(graphs["rmat"])
	cycles := make([]graph.Edge, 336)
	for v := range cycles {
		cycles[v] = graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 84) % 336)}
	}
	graphs["cycles"] = graph.FromEdges(336, cycles, false)
	undirected := map[string]bool{"rmat-undirected": true, "grid": true, "star": true, "empty": true}
	// unweighted directed R-MAT plans rejected by the count, and cycle
	// plans that pass the count and fail the symmetry check
	unbalanced, balancedAsymmetric := 0, 0
	for gname, base := range graphs {
		for _, weighted := range []bool{false, true} {
			g := reweighted(base, weighted)
			for _, workers := range []int{1, 3, 4, 7} {
				for pname, p := range testPartitions(t, g, workers) {
					fs, again := Build(g, p), Build(g, p)
					var charged int64
					fs.DeriveHook = func(b int64) { charged += b }
					var builder PushBuilder // one for all workers' registrations: reuse must leave no trace
					var reused PushPlan
					for w := 0; w < workers; w++ {
						name := fmt.Sprintf("%s/weighted=%v/%s/%d w%d", gname, weighted, pname, workers, w)
						f := fs.Frag(w)
						before := charged
						plan := f.PushPlan()
						if f.PushPlan() != plan || charged-before != plan.Bytes() {
							t.Fatalf("%s: plan not cached or charged %d for %d bytes", name, charged-before, plan.Bytes())
						}
						if !reflect.DeepEqual(plan, again.Frag(w).PushPlan()) {
							t.Fatalf("%s: two builds differ", name)
						}
						if int(plan.Locals) != f.LocalCount() || len(plan.Off) != f.LocalCount()+1 || len(plan.Row) != f.NumEdges() ||
							len(plan.SlotOff) != workers+1 || plan.SlotOff[w] != plan.SlotOff[w+1] || int(plan.SlotOff[workers]) != plan.Slots() ||
							(plan.W != nil) != weighted {
							t.Fatalf("%s: plan shape %d locals, %d offsets, %d targets, slot ranges %v, weights %v", name,
								plan.Locals, len(plan.Off), len(plan.Row), plan.SlotOff, plan.W != nil)
						}
						used := make([]bool, plan.Slots())
						for li := 0; li < f.LocalCount(); li++ {
							row := plan.Row[plan.Off[li]:plan.Off[li+1]]
							if len(row) != f.OutDegree(li) {
								t.Fatalf("%s: local %d has %d edges, its row %d targets", name, li, f.OutDegree(li), len(row))
							}
							for i, a := range f.Neighbors(li) {
								switch tg := row[i]; {
								case a.Worker() == w && tg != a.Local():
									t.Fatalf("%s: local %d edge %d to local %d has target %d", name, li, i, a.Local(), tg)
								case a.Worker() != w:
									if tg < plan.Locals || int(tg-plan.Locals) >= plan.Slots() {
										t.Fatalf("%s: local %d edge %d to %d/%d has target %d of %d+%d", name, li, i, a.Worker(), a.Local(), tg, plan.Locals, plan.Slots())
									}
									s := tg - plan.Locals
									if plan.SlotOwner(s) != a.Worker() || plan.SlotLocal[s] != a.Local() {
										t.Fatalf("%s: local %d edge %d to %d/%d lands on slot %d = %d/%d", name, li, i, a.Worker(), a.Local(), s, plan.SlotOwner(s), plan.SlotLocal[s])
									}
									used[s] = true
								}
								if weighted && plan.W[plan.Off[li]+uint64(i)] != f.NeighborWeights(li)[i] {
									t.Fatalf("%s: local %d edge %d lost its weight", name, li, i)
								}
							}
						}
						for d := 0; d < workers; d++ {
							of := plan.SlotLocal[plan.SlotOff[d]:plan.SlotOff[d+1]]
							if !slices.IsSorted(of) || len(slices.Compact(slices.Clone(of))) != len(of) {
								t.Fatalf("%s: slots of worker %d not strictly ascending: %v", name, d, of)
							}
						}
						if slices.Contains(used, false) {
							t.Fatalf("%s: a slot no edge lands on", name)
						}
						var fresh PushBuilder
						fresh.buildCSR(new(PushPlan), w, p, f.offsets, f.adj, f.weights)
						switch symmetric, balanced := localSymmetric(f); {
						case (plan.Comp != nil) != (symmetric && !weighted):
							t.Fatalf("%s: components %v, local part symmetric %v", name, plan.Comp != nil, symmetric)
						case (fresh.in != nil) != (balanced && !weighted):
							t.Fatalf("%s: transposed %v, as many local edges in as out %v", name, fresh.in != nil, balanced)
						case undirected[gname] && !symmetric:
							t.Fatalf("%s: an undirected graph's local part is not symmetric", name)
						case gname == "cycles" && plan.Comp != nil:
							t.Fatalf("%s: directed cycles got components", name)
						case plan.Comp != nil:
							checkLocalComponents(t, name, f, plan)
						case gname == "rmat" && !weighted && !balanced:
							unbalanced++
						case gname == "cycles" && !weighted && balanced:
							balancedAsymmetric++
						}
						tables := len(plan.Comp) + len(plan.MemberOff) + len(plan.Member) + len(plan.CompSlotOff) + len(plan.CompSlot)
						if plan.Bytes() != int64(4*(len(plan.Row)+len(plan.SlotLocal)+len(plan.SlotOff)+tables)) {
							t.Fatalf("%s: Bytes() = %d", name, plan.Bytes())
						}

						// the same edges registered vertex by vertex, last vertex first
						var src []uint32
						var dst []Addr
						var wts []int32
						for li := f.LocalCount() - 1; li >= 0; li-- {
							for i, a := range f.Neighbors(li) {
								src, dst = append(src, uint32(li)), append(dst, a)
								if weighted {
									wts = append(wts, f.NeighborWeights(li)[i])
								}
							}
						}
						if weighted && wts == nil {
							wts = []int32{}
						}
						builder.Build(&reused, w, p, src, dst, wts)
						if !reflect.DeepEqual(&reused, plan) {
							t.Fatalf("%s: plan of the registrations differs from the fragment's\n%+v\n%+v", name, reused, *plan)
						}
					}
				}
			}
		}
	}
	if unbalanced == 0 || balancedAsymmetric == 0 {
		t.Errorf("%d directed R-MAT plans were rejected by the count and %d cycle plans by the symmetry check: one of them was not exercised",
			unbalanced, balancedAsymmetric)
	}
}

// localSymmetric reports, from a set of f's local edges and their
// counts, whether f's local part is symmetric — every edge between two
// local vertices has its reverse, and it is balanced — and whether it is
// balanced: every local vertex has as many local edges in as out.
func localSymmetric(f *Fragment) (symmetric, balanced bool) {
	w := f.WorkerID()
	edges := make(map[[2]uint32]bool)
	degree := make([]int, f.LocalCount()) // local in-degree less local out-degree
	for li := 0; li < f.LocalCount(); li++ {
		for _, a := range f.Neighbors(li) {
			if a.Worker() == w {
				edges[[2]uint32{uint32(li), a.Local()}] = true
				degree[a.Local()]++
				degree[li]--
			}
		}
	}
	balanced = !slices.ContainsFunc(degree, func(d int) bool { return d != 0 })
	for e := range edges {
		if !edges[[2]uint32{e[1], e[0]}] {
			return false, balanced
		}
	}
	return balanced, balanced
}

// checkLocalComponents checks a plan's component tables against a
// breadth-first search of f's local subgraph: components numbered by
// their smallest member, members ascending, and each component's slots
// the deduplicated union of its members' remote targets, ascending.
func checkLocalComponents(t *testing.T, name string, f *Fragment, plan *PushPlan) {
	t.Helper()
	n := f.LocalCount()
	comp := make([]int, n)
	for li := range comp {
		comp[li] = -1
	}
	var members [][]uint32
	for root := 0; root < n; root++ {
		if comp[root] >= 0 {
			continue
		}
		k := len(members)
		comp[root] = k
		queue := []int{root}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, a := range f.Neighbors(u) {
				if a.Worker() == f.WorkerID() && comp[a.Local()] < 0 {
					comp[a.Local()] = k
					queue = append(queue, int(a.Local()))
				}
			}
		}
		members = append(members, nil)
	}
	for li, k := range comp {
		members[k] = append(members[k], uint32(li))
	}
	if plan.Components() != len(members) || len(plan.Comp) != n || len(plan.Member) != n || len(plan.CompSlotOff) != len(members)+1 ||
		int(plan.CompSlotOff[len(members)]) != len(plan.CompSlot) {
		t.Fatalf("%s: %d components over %d members, %d slot offsets; the search finds %d over %d", name,
			plan.Components(), len(plan.Member), len(plan.CompSlotOff), len(members), n)
	}
	for k, want := range members {
		got := plan.Member[plan.MemberOff[k]:plan.MemberOff[k+1]]
		if !slices.Equal(got, want) {
			t.Fatalf("%s: component %d has members %v, the search %v", name, k, got, want)
		}
		var slots []uint32
		for _, li := range want {
			if plan.Comp[li] != uint32(k) {
				t.Fatalf("%s: local %d is in component %d, the search puts it in %d", name, li, plan.Comp[li], k)
			}
			for _, tg := range plan.Row[plan.Off[li]:plan.Off[li+1]] {
				if tg >= plan.Locals {
					slots = append(slots, tg-plan.Locals)
				}
			}
		}
		slices.Sort(slots)
		slots = slices.Compact(slots)
		if got := plan.CompSlot[plan.CompSlotOff[k]:plan.CompSlotOff[k+1]]; !slices.Equal(got, slots) && len(got)+len(slots) > 0 {
			t.Fatalf("%s: component %d has slots %v, its members reach %v", name, k, got, slots)
		}
	}
}
