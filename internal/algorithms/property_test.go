package algorithms

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/seq"
)

// Property-based tests: every distributed algorithm equals its
// sequential oracle on randomly generated graphs, across random worker
// counts.

func randomUndirected(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.Intn(60)
	m := rng.Intn(4 * n)
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		w := 1 + rng.Int31n(40)
		edges = append(edges, graph.Edge{Src: u, Dst: v, Weight: w})
	}
	return graph.Undirectify(graph.FromEdges(n, edges, true))
}

func randomParts(rng *rand.Rand, n int) *partition.Partition {
	return partition.MustHash(n, 1+rng.Intn(6))
}

func TestPropertySVEqualsUnionFind(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomUndirected(rng)
		want := seq.ConnectedComponents(g)
		o := Options{Part: randomParts(rng, g.NumVertices()), MaxSupersteps: 100000}
		variant := rng.Intn(4)
		var got []graph.VertexID
		var err error
		switch variant {
		case 0:
			got, _, err = svChannel(g, o)
		case 1:
			got, _, err = svReqResp(g, o)
		case 2:
			got, _, err = svScatter(g, o)
		default:
			got, _, err = svBoth(g, o)
		}
		if err != nil {
			t.Logf("seed %d variant %d: %v", seed, variant, err)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d variant %d: vertex %d got %d want %d", seed, variant, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWCCEqualsUnionFind(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomUndirected(rng)
		want := seq.ConnectedComponents(g)
		o := Options{Part: randomParts(rng, g.NumVertices()), MaxSupersteps: 100000}
		var got []graph.VertexID
		var err error
		if rng.Intn(2) == 0 {
			got, _, err = wccPropagation(g, o)
		} else {
			got, _, err = wccBlogel(g, o)
		}
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPJFindsRoots(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		k := 1 + int(kRaw)%5
		if k > n {
			k = n
		}
		g := graph.Forest(n, k, seed)
		want := seq.TreeRoots(g)
		o := Options{Part: randomParts(rng, n), MaxSupersteps: 100000}
		var got []graph.VertexID
		var err error
		if rng.Intn(2) == 0 {
			got, _, err = pointerJumpChannel(g, o)
		} else {
			got, _, err = pointerJumpReqResp(g, o)
		}
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertySCCEqualsTarjan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := rng.Intn(4 * n)
		g := graph.RandomDigraph(n, m, seed)
		want := seq.SCC(g)
		o := Options{Part: randomParts(rng, n), MaxSupersteps: 100000}
		var got []graph.VertexID
		var err error
		if rng.Intn(2) == 0 {
			got, _, err = sccChannel(g, o)
		} else {
			got, _, err = sccPropagation(g, o)
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: vertex %d got %d want %d", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMSFEqualsKruskal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomUndirected(rng)
		wantW, wantCnt := seq.MSFWeight(g)
		o := Options{Part: randomParts(rng, g.NumVertices()), MaxSupersteps: 100000}
		res, _, err := msfChannel(g, o)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Weight != wantW || len(res.Edges) != wantCnt {
			t.Logf("seed %d: weight=%d count=%d want %d %d", seed, res.Weight, len(res.Edges), wantW, wantCnt)
			return false
		}
		// forest check
		uf := seq.NewUnionFind(g.NumVertices())
		for _, e := range res.Edges {
			if !uf.Union(int(e.Src), int(e.Dst)) {
				t.Logf("seed %d: cycle", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertySSSPEqualsDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomUndirected(rng)
		src := graph.VertexID(rng.Intn(g.NumVertices()))
		want := seq.Dijkstra(g, src)
		o := Options{Part: randomParts(rng, g.NumVertices()), MaxSupersteps: 100000}
		var got []int64
		var err error
		if rng.Intn(2) == 0 {
			got, _, err = ssspChannel(g, src, o)
		} else {
			got, _, err = ssspPropagation(g, src, o)
		}
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The MSF candidate combiner must be a total order selection:
// commutative, associative, idempotent.
func TestPropertyMSFCandCombinerLaws(t *testing.T) {
	gen := func(rng *rand.Rand) msfCandMsg {
		if rng.Intn(5) == 0 {
			return msfCandMsg{}
		}
		return msfCandMsg{
			W:     rng.Int31n(5),
			U:     graph.VertexID(rng.Intn(6)),
			V:     graph.VertexID(rng.Intn(6)),
			C2:    graph.VertexID(rng.Intn(6)),
			Valid: true,
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := gen(rng), gen(rng), gen(rng)
		ab := msfCandMin(a, b)
		ba := msfCandMin(b, a)
		// commutative up to tie-equivalence under the total order
		if ab.Valid != ba.Valid {
			return false
		}
		if ab.Valid && (msfCandLess(ab, ba) || msfCandLess(ba, ab)) {
			return false
		}
		// associative
		l := msfCandMin(msfCandMin(a, b), c)
		r := msfCandMin(a, msfCandMin(b, c))
		if l.Valid != r.Valid {
			return false
		}
		if l.Valid && (msfCandLess(l, r) || msfCandLess(r, l)) {
			return false
		}
		// idempotent
		aa := msfCandMin(a, a)
		if aa != a {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Equivalence sweep for the dense exchange fabric and the
// shared-nothing fragment layer: every Table IV–VII algorithm variant
// must match its sequential oracle on the RMAT/chain/tree/grid
// generators, across seeds, worker counts and placements. Every run
// executes on pre-resolved per-worker fragments (Options.Frags), under
// both the hash and the greedy locality placement, so the packed-address
// send paths replaying the old Owner/LocalIndex resolution are pinned to
// identical results; the combiners are commutative and associative, so
// the only observable difference permitted is performance.
func TestFragmentEquivalenceSweep(t *testing.T) {
	type labelRun struct {
		name string
		run  func(*graph.Graph, Options) ([]graph.VertexID, error)
	}
	wccRuns := []labelRun{
		{"wcc-channel", func(g *graph.Graph, o Options) ([]graph.VertexID, error) { v, _, e := wccChannel(g, o); return v, e }},
		{"wcc-prop", func(g *graph.Graph, o Options) ([]graph.VertexID, error) {
			v, _, e := wccPropagation(g, o)
			return v, e
		}},
		{"wcc-blogel", func(g *graph.Graph, o Options) ([]graph.VertexID, error) { v, _, e := wccBlogel(g, o); return v, e }},
		{"wcc-pregel", func(g *graph.Graph, o Options) ([]graph.VertexID, error) { v, _, e := wccPregel(g, o); return v, e }},
		{"sv-channel", func(g *graph.Graph, o Options) ([]graph.VertexID, error) { v, _, e := svChannel(g, o); return v, e }},
		{"sv-reqresp", func(g *graph.Graph, o Options) ([]graph.VertexID, error) { v, _, e := svReqResp(g, o); return v, e }},
		{"sv-scatter", func(g *graph.Graph, o Options) ([]graph.VertexID, error) { v, _, e := svScatter(g, o); return v, e }},
		{"sv-both", func(g *graph.Graph, o Options) ([]graph.VertexID, error) { v, _, e := svBoth(g, o); return v, e }},
		{"sv-pregel", func(g *graph.Graph, o Options) ([]graph.VertexID, error) { v, _, e := svPregel(g, o); return v, e }},
	}
	sccRuns := []labelRun{
		{"scc-channel", func(g *graph.Graph, o Options) ([]graph.VertexID, error) { v, _, e := sccChannel(g, o); return v, e }},
		{"scc-prop", func(g *graph.Graph, o Options) ([]graph.VertexID, error) {
			v, _, e := sccPropagation(g, o)
			return v, e
		}},
		{"scc-pregel", func(g *graph.Graph, o Options) ([]graph.VertexID, error) { v, _, e := sccPregel(g, o); return v, e }},
	}
	pjRuns := []labelRun{
		{"pj-channel", func(g *graph.Graph, o Options) ([]graph.VertexID, error) {
			v, _, e := pointerJumpChannel(g, o)
			return v, e
		}},
		{"pj-reqresp", func(g *graph.Graph, o Options) ([]graph.VertexID, error) {
			v, _, e := pointerJumpReqResp(g, o)
			return v, e
		}},
		{"pj-pregel", func(g *graph.Graph, o Options) ([]graph.VertexID, error) {
			v, _, e := pointerJumpPregel(g, o)
			return v, e
		}},
		{"pj-pregel-rr", func(g *graph.Graph, o Options) ([]graph.VertexID, error) {
			v, _, e := pointerJumpPregelReqResp(g, o)
			return v, e
		}},
	}
	checkLabels := func(t *testing.T, name string, got, want []graph.VertexID) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: vertex %d got %d want %d", name, i, got[i], want[i])
			}
		}
	}

	for _, seed := range []int64{11, 42} {
		rmatD := graph.RMAT(8, 5, seed, graph.RMATOptions{NoSelfLoops: true})
		rmatU := graph.Undirectify(rmatD)
		rmatW := graph.Undirectify(graph.RMAT(7, 4, seed, graph.RMATOptions{Weighted: true, MaxWeight: 50, NoSelfLoops: true}))
		chain := graph.Chain(257)
		tree := graph.RandomTree(301, seed)
		grid := graph.Grid(11, 13, 50, seed)

		for _, shape := range []struct {
			workers   int
			placement string
		}{
			{1, partition.PlacementHash},
			{4, partition.PlacementHash},
			{4, partition.PlacementGreedy},
		} {
			workers, memo := shape.workers, map[*graph.Graph]Options{}
			opt := func(g *graph.Graph) Options {
				if o, ok := memo[g]; ok {
					return o
				}
				p, err := partition.ByName(shape.placement, g, workers)
				if err != nil {
					t.Fatal(err)
				}
				o := Options{Part: p, Frags: frag.Build(g, p), MaxSupersteps: 100000}
				memo[g] = o
				return o
			}

			// connectivity on every undirected generator shape
			for _, gc := range []struct {
				gname string
				g     *graph.Graph
			}{
				{"rmat", rmatU},
				{"chain", graph.Undirectify(chain)},
				{"tree", graph.Undirectify(tree)},
				{"grid", grid},
			} {
				want := seq.ConnectedComponents(gc.g)
				for _, r := range wccRuns {
					got, err := r.run(gc.g, opt(gc.g))
					if err != nil {
						t.Fatalf("seed %d w%d %s/%s: %v", seed, workers, gc.gname, r.name, err)
					}
					checkLabels(t, gc.gname+"/"+r.name, got, want)
				}
			}

			// SCC on the directed generators
			for _, gc := range []struct {
				gname string
				g     *graph.Graph
			}{
				{"rmat", rmatD},
				{"chain", chain},
				{"tree", tree},
			} {
				want := seq.SCC(gc.g)
				for _, r := range sccRuns {
					got, err := r.run(gc.g, opt(gc.g))
					if err != nil {
						t.Fatalf("seed %d w%d %s/%s: %v", seed, workers, gc.gname, r.name, err)
					}
					checkLabels(t, gc.gname+"/"+r.name, got, want)
				}
			}

			// pointer jumping on the parent-pointer generators
			for _, gc := range []struct {
				gname string
				g     *graph.Graph
			}{
				{"chain", chain},
				{"tree", tree},
			} {
				want := seq.TreeRoots(gc.g)
				for _, r := range pjRuns {
					got, err := r.run(gc.g, opt(gc.g))
					if err != nil {
						t.Fatalf("seed %d w%d %s/%s: %v", seed, workers, gc.gname, r.name, err)
					}
					checkLabels(t, gc.gname+"/"+r.name, got, want)
				}
			}

			// SSSP and MSF on the weighted generators
			for _, gc := range []struct {
				gname string
				g     *graph.Graph
			}{
				{"rmatw", rmatW},
				{"grid", grid},
			} {
				src := graph.VertexID(int(seed) % gc.g.NumVertices())
				wantD := seq.Dijkstra(gc.g, src)
				for name, run := range map[string]func() ([]int64, error){
					"sssp-channel": func() ([]int64, error) { v, _, e := ssspChannel(gc.g, src, opt(gc.g)); return v, e },
					"sssp-prop":    func() ([]int64, error) { v, _, e := ssspPropagation(gc.g, src, opt(gc.g)); return v, e },
					"sssp-pregel":  func() ([]int64, error) { v, _, e := ssspPregel(gc.g, src, opt(gc.g)); return v, e },
				} {
					got, err := run()
					if err != nil {
						t.Fatalf("seed %d w%d %s/%s: %v", seed, workers, gc.gname, name, err)
					}
					for i := range wantD {
						if got[i] != wantD[i] {
							t.Fatalf("seed %d w%d %s/%s: vertex %d got %d want %d", seed, workers, gc.gname, name, i, got[i], wantD[i])
						}
					}
				}
				wantW, wantCnt := seq.MSFWeight(gc.g)
				for name, run := range map[string]func() (MSFResult, error){
					"msf-channel": func() (MSFResult, error) { v, _, e := msfChannel(gc.g, opt(gc.g)); return v, e },
					"msf-pregel":  func() (MSFResult, error) { v, _, e := msfPregel(gc.g, opt(gc.g)); return v, e },
				} {
					res, err := run()
					if err != nil {
						t.Fatalf("seed %d w%d %s/%s: %v", seed, workers, gc.gname, name, err)
					}
					if res.Weight != wantW || len(res.Edges) != wantCnt {
						t.Fatalf("seed %d w%d %s/%s: weight=%d edges=%d want %d %d",
							seed, workers, gc.gname, name, res.Weight, len(res.Edges), wantW, wantCnt)
					}
				}
			}

			// PageRank: dense staging makes the channel engine
			// deterministic — two runs must agree bit for bit — and all
			// variants must agree with the sequential oracle to fp noise.
			{
				o := opt(rmatD)
				const iters = 12
				want := seq.PageRank(rmatD, iters)
				r1, _, err := pageRankChannel(rmatD, o, iters)
				if err != nil {
					t.Fatal(err)
				}
				r2, _, err := pageRankChannel(rmatD, o, iters)
				if err != nil {
					t.Fatal(err)
				}
				for i := range r1 {
					if r1[i] != r2[i] {
						t.Fatalf("seed %d w%d pagerank nondeterministic at vertex %d: %v != %v", seed, workers, i, r1[i], r2[i])
					}
				}
				for name, run := range map[string]func() ([]float64, error){
					"pr-scatter": func() ([]float64, error) { v, _, e := pageRankScatter(rmatD, o, iters); return v, e },
					"pr-mirror":  func() ([]float64, error) { v, _, e := pageRankMirror(rmatD, o, iters); return v, e },
					"pr-pregel":  func() ([]float64, error) { v, _, e := pageRankPregel(rmatD, o, iters); return v, e },
					"pr-ghost":   func() ([]float64, error) { v, _, e := pageRankPregelGhost(rmatD, o, iters); return v, e },
				} {
					got, err := run()
					if err != nil {
						t.Fatalf("seed %d w%d %s: %v", seed, workers, name, err)
					}
					for i := range want {
						if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
							t.Fatalf("seed %d w%d %s: vertex %d got %v want %v", seed, workers, name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// Single-worker degeneracy: every algorithm must work with M=1 (all
// loopback traffic).
func TestSingleWorkerDegeneracy(t *testing.T) {
	g := graph.SocialRMAT(6, 3, 13)
	o := Options{Part: partition.MustHash(g.NumVertices(), 1), MaxSupersteps: 100000}
	want := seq.ConnectedComponents(g)
	for _, tc := range []struct {
		name string
		run  func() ([]graph.VertexID, error)
	}{
		{"sv-both", func() ([]graph.VertexID, error) { v, _, e := svBoth(g, o); return v, e }},
		{"wcc-prop", func() ([]graph.VertexID, error) { v, _, e := wccPropagation(g, o); return v, e }},
	} {
		got, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: vertex %d", tc.name, i)
			}
		}
	}
	dg := graph.RandomDigraph(40, 120, 3)
	wantSCC := seq.SCC(dg)
	oD := Options{Part: partition.MustHash(dg.NumVertices(), 1), MaxSupersteps: 100000}
	gotSCC, _, err := sccPropagation(dg, oD)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSCC {
		if gotSCC[i] != wantSCC[i] {
			t.Fatalf("scc: vertex %d", i)
		}
	}
}

// More workers than vertices: some workers are empty everywhere.
func TestMoreWorkersThanVertices(t *testing.T) {
	g := graph.Undirectify(graph.Chain(5))
	o := Options{Part: partition.MustHash(5, 8), MaxSupersteps: 1000}
	got, _, err := svBoth(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 0 {
			t.Fatalf("vertex %d -> %d", i, got[i])
		}
	}
}

// Empty graph edge case.
func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(4, nil, false)
	g.Undirected = true
	o := Options{Part: partition.MustHash(4, 2), MaxSupersteps: 1000}
	got, _, err := wccPropagation(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if int(c) != i {
			t.Errorf("isolated vertex %d labeled %d", i, c)
		}
	}
	res, _, err := msfChannel(graph.FromEdges(4, nil, true), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 0 || len(res.Edges) != 0 {
		t.Errorf("empty MSF: %v", res)
	}
}
