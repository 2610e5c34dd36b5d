package algorithms

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/seq"
)

const testWorkers = 4

func hashOpts(g *graph.Graph) Options {
	return Options{Part: partition.MustHash(g.NumVertices(), testWorkers)}
}

func greedyOpts(g *graph.Graph) Options {
	return Options{Part: partition.MustGreedy(g, testWorkers)}
}

// --- PageRank ---

func checkPageRank(t *testing.T, name string, got []float64, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("%s: pr[%d]=%v want %v", name, i, got[i], want[i])
		}
	}
}

func TestPageRankVariantsMatchOracle(t *testing.T) {
	g := graph.RMAT(8, 6, 42, graph.RMATOptions{})
	const iters = 15
	want := seq.PageRank(g, iters)

	got, met, err := pageRankChannel(g, hashOpts(g), iters)
	if err != nil {
		t.Fatal(err)
	}
	checkPageRank(t, "channel", got, want)
	if met.Supersteps != iters+1 {
		t.Errorf("channel supersteps=%d", met.Supersteps)
	}

	got2, _, err := pageRankScatter(g, hashOpts(g), iters)
	if err != nil {
		t.Fatal(err)
	}
	checkPageRank(t, "scatter", got2, want)

	got3, _, err := pageRankPregel(g, hashOpts(g), iters)
	if err != nil {
		t.Fatal(err)
	}
	checkPageRank(t, "pregel", got3, want)

	got4, _, err := pageRankPregelGhost(g, hashOpts(g), iters)
	if err != nil {
		t.Fatal(err)
	}
	checkPageRank(t, "ghost", got4, want)
}

// pageRankScalarFold is pageRankScatter written as plain loops with one
// scalar + per edge, in the order the channels combine: per destination
// the sources of one worker in ascending local index, the workers'
// partial sums in worker order, the dangling mass likewise.
func pageRankScalarFold(g *graph.Graph, part *partition.Partition, iterations int) []float64 {
	n, m := g.NumVertices(), part.NumWorkers()
	// in[v][w]: v's in-neighbors owned by worker w, ascending local index
	in := make([][][]graph.VertexID, n)
	for v := range in {
		in[v] = make([][]graph.VertexID, m)
	}
	for w := 0; w < m; w++ {
		for li := 0; li < part.LocalCount(w); li++ {
			u := part.GlobalID(w, li)
			for _, v := range g.Neighbors(u) {
				in[v][w] = append(in[v][w], u)
			}
		}
	}
	pr, share, inbox := make([]float64, n), make([]float64, n), make([]float64, n)
	dangling := 0.0
	for step := 1; step <= iterations+1; step++ {
		for v := range pr {
			if step == 1 {
				pr[v] = 1.0 / float64(n)
			} else {
				pr[v] = 0.15/float64(n) + 0.85*(inbox[v]+dangling/float64(n))
			}
		}
		dangling = 0
		first := true
		for w := 0; w < m; w++ {
			partial, any := 0.0, false
			for li := 0; li < part.LocalCount(w); li++ {
				u := part.GlobalID(w, li)
				if deg := g.OutDegree(u); deg > 0 {
					share[u] = pr[u] / float64(deg)
				} else if any {
					partial += pr[u]
				} else {
					partial, any = pr[u], true
				}
			}
			if any && first {
				dangling, first = partial, false
			} else if any {
				dangling += partial
			}
		}
		for v := range inbox {
			inbox[v] = 0
			delivered := false
			for w := 0; w < m; w++ {
				if len(in[v][w]) == 0 {
					continue
				}
				partial := share[in[v][w][0]]
				for _, u := range in[v][w][1:] {
					partial += share[u]
				}
				if delivered {
					inbox[v] += partial
				} else {
					inbox[v], delivered = partial, true
				}
			}
		}
	}
	return pr
}

// The Sum combiner's segment fold and indexed merge must not regroup a
// single addition: ranks equal the scalar loops bit for bit.
func TestPageRankScatterBitIdenticalToScalarFold(t *testing.T) {
	g := graph.RMAT(12, 16, 7, graph.RMATOptions{NoSelfLoops: true})
	const iters = 30
	opts := hashOpts(g)
	got, _, err := pageRankScatter(g, opts, iters)
	if err != nil {
		t.Fatal(err)
	}
	want := pageRankScalarFold(g, opts.Part, iters)
	checkPageRank(t, "scalar fold vs oracle", want, seq.PageRank(g, iters))
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("pr[%d] = %x (%v), scalar fold %x (%v)", v, math.Float64bits(got[v]), got[v], math.Float64bits(want[v]), want[v])
		}
	}
}

func TestPageRankDeadEnds(t *testing.T) {
	// star into a sink: sink mass must be redistributed, ranks sum to 1
	edges := []graph.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}}
	g := graph.FromEdges(4, edges, false)
	want := seq.PageRank(g, 10)
	got, _, err := pageRankChannel(g, hashOpts(g), 10)
	if err != nil {
		t.Fatal(err)
	}
	checkPageRank(t, "deadend", got, want)
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ranks sum to %v", sum)
	}
}

// On 3 vertices over 4 workers worker 3 hosts none: its range programs
// get the empty range [0, 0), compute nothing and send no frame — no
// aggregator partial in particular — and the jobs still reach the
// oracles.
func TestComputeRangeEmptyWorker(t *testing.T) {
	cycle := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2}}, false)
	sink := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}}, false)
	pair := graph.Undirectify(graph.FromEdges(3, []graph.Edge{{Src: 2, Dst: 1}}, false))
	pagerank := func(g *graph.Graph) func(t *testing.T, opts Options) {
		return func(t *testing.T, opts Options) {
			got, _, err := pageRankScatter(g, opts, 10)
			if err != nil {
				t.Fatal(err)
			}
			checkPageRank(t, "pagerank/scatter", got, seq.PageRank(g, 10))
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, opts Options)
	}{
		{"pagerank-scatter-cycle", pagerank(cycle)},
		{"pagerank-scatter-sink", pagerank(sink)},
		{"sv-both", func(t *testing.T, opts Options) {
			got, _, err := svBoth(pair, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkRoots(t, "sv/both", got, seq.ConnectedComponents(pair))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			part := partition.MustHash(3, testWorkers)
			if n := part.LocalCount(testWorkers - 1); n != 0 {
				t.Fatalf("the last worker hosts %d vertices", n)
			}
			tr := obs.NewTrace(testWorkers)
			tc.run(t, Options{Part: part, Observer: tr})
			for _, s := range tr.Samples() {
				if s.Worker == testWorkers-1 && s.FramesSent != 0 {
					t.Errorf("empty worker sent %d frames in superstep %d: %v", s.FramesSent, s.Superstep, s.Channels)
				}
			}
		})
	}
}

// --- Pointer jumping ---

func checkRoots(t *testing.T, name string, got []graph.VertexID, want []graph.VertexID) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: root[%d]=%d want %d", name, i, got[i], want[i])
		}
	}
}

func TestPointerJumpVariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"chain", graph.Chain(500)},
		{"tree", graph.RandomTree(800, 7)},
		{"forest", graph.Forest(600, 5, 3)},
	} {
		want := seq.TreeRoots(tc.g)
		got, _, err := pointerJumpChannel(tc.g, hashOpts(tc.g))
		if err != nil {
			t.Fatal(err)
		}
		checkRoots(t, tc.name+"/channel", got, want)

		got2, _, err := pointerJumpReqResp(tc.g, hashOpts(tc.g))
		if err != nil {
			t.Fatal(err)
		}
		checkRoots(t, tc.name+"/reqresp", got2, want)

		got3, _, err := pointerJumpPregel(tc.g, hashOpts(tc.g))
		if err != nil {
			t.Fatal(err)
		}
		checkRoots(t, tc.name+"/pregel", got3, want)

		got4, _, err := pointerJumpPregelReqResp(tc.g, hashOpts(tc.g))
		if err != nil {
			t.Fatal(err)
		}
		checkRoots(t, tc.name+"/pregel-reqresp", got4, want)
	}
}

func TestPointerJumpReqRespFewerSupersteps(t *testing.T) {
	g := graph.Chain(2000)
	_, mBasic, err := pointerJumpChannel(g, hashOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	_, mRR, err := pointerJumpReqResp(g, hashOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	if mRR.Supersteps >= mBasic.Supersteps {
		t.Errorf("reqresp %d supersteps, basic %d", mRR.Supersteps, mBasic.Supersteps)
	}
	// Pregel+ reply format is bigger than the channel's ordered-value
	// replies for the same protocol
	_, mPRR, err := pointerJumpPregelReqResp(g, hashOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	if mPRR.NetBytes <= mRR.NetBytes {
		t.Errorf("pregel reqresp bytes %d <= channel reqresp bytes %d",
			mPRR.NetBytes, mRR.NetBytes)
	}
}

// --- WCC ---

func TestWCCVariantsMatchOracle(t *testing.T) {
	g := graph.SocialRMAT(8, 3, 11)
	want := seq.ConnectedComponents(g)

	for _, tc := range []struct {
		name string
		run  func() ([]graph.VertexID, error)
	}{
		{"channel", func() ([]graph.VertexID, error) { v, _, e := wccChannel(g, hashOpts(g)); return v, e }},
		{"prop", func() ([]graph.VertexID, error) { v, _, e := wccPropagation(g, hashOpts(g)); return v, e }},
		{"blogel", func() ([]graph.VertexID, error) { v, _, e := wccBlogel(g, hashOpts(g)); return v, e }},
		{"pregel", func() ([]graph.VertexID, error) { v, _, e := wccPregel(g, hashOpts(g)); return v, e }},
		{"prop-partitioned", func() ([]graph.VertexID, error) { v, _, e := wccPropagation(g, greedyOpts(g)); return v, e }},
		{"blogel-partitioned", func() ([]graph.VertexID, error) { v, _, e := wccBlogel(g, greedyOpts(g)); return v, e }},
	} {
		got, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkRoots(t, tc.name, got, want)
	}
}

func TestWCCPropagationSuperstepAdvantage(t *testing.T) {
	// long path: hash-min needs O(n) supersteps, propagation needs 2
	g := graph.Undirectify(graph.Chain(300))
	_, mChan, err := wccChannel(g, hashOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	_, mProp, err := wccPropagation(g, hashOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	if mProp.Supersteps != 2 {
		t.Errorf("propagation supersteps=%d want 2", mProp.Supersteps)
	}
	if mChan.Supersteps < 100 {
		t.Errorf("hash-min supersteps=%d suspiciously low", mChan.Supersteps)
	}
}

// --- S-V ---

func TestSVVariantsMatchOracle(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.SocialRMAT(7, 2, 5),  // sparse
		graph.SocialRMAT(6, 12, 9), // dense
		graph.Undirectify(graph.Chain(200)),
	} {
		want := seq.ConnectedComponents(g)
		opts := hashOpts(g)
		for _, tc := range []struct {
			name string
			run  func() ([]graph.VertexID, error)
		}{
			{"basic", func() ([]graph.VertexID, error) { v, _, e := svChannel(g, opts); return v, e }},
			{"reqresp", func() ([]graph.VertexID, error) { v, _, e := svReqResp(g, opts); return v, e }},
			{"scatter", func() ([]graph.VertexID, error) { v, _, e := svScatter(g, opts); return v, e }},
			{"both", func() ([]graph.VertexID, error) { v, _, e := svBoth(g, opts); return v, e }},
			{"pregel", func() ([]graph.VertexID, error) { v, _, e := svPregel(g, opts); return v, e }},
			{"pregel-reqresp", func() ([]graph.VertexID, error) { v, _, e := svPregelReqResp(g, opts); return v, e }},
		} {
			got, err := tc.run()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			checkRoots(t, tc.name, got, want)
		}
	}
}

func TestSVMessageReduction(t *testing.T) {
	// the §V-A claim: monolithic tagged messages without combiner cost
	// more bytes than the channel version
	g := graph.SocialRMAT(7, 8, 3)
	opts := hashOpts(g)
	_, mPregel, err := svPregel(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, mChan, err := svChannel(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, mBoth, err := svBoth(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mChan.NetBytes >= mPregel.NetBytes {
		t.Errorf("channel bytes %d >= pregel bytes %d", mChan.NetBytes, mPregel.NetBytes)
	}
	if mBoth.NetBytes >= mChan.NetBytes {
		t.Errorf("composed bytes %d >= basic channel bytes %d", mBoth.NetBytes, mChan.NetBytes)
	}
}

// rootsMixed is a weighted undirected graph of 75 vertices: 24 isolated
// ones, a star whose center 34 is neither its smallest nor its largest
// id (leaves 24-33 and 35-44), and the path 45-46-...-74.
func rootsMixed() *graph.Graph {
	var edges []graph.Edge
	add := func(u, v graph.VertexID, w int32) {
		edges = append(edges, graph.Edge{Src: u, Dst: v, Weight: w}, graph.Edge{Src: v, Dst: u, Weight: w})
	}
	for leaf := graph.VertexID(24); leaf <= 44; leaf++ {
		if leaf != 34 {
			add(34, leaf, int32(leaf%7)+1)
		}
	}
	for u := graph.VertexID(45); u < 74; u++ {
		add(u, u+1, int32(u*5%11)+1)
	}
	g := graph.FromEdges(75, edges, true)
	g.Undirected = true
	return g
}

// A vertex that is its own parent knows its grandparent, so no S-V
// variant fetches D[D[u]] for a root and no Boruvka pointer chase asks a
// vertex with cur[u] = u. The results stay the oracles' and the network
// bytes stay those recorded before roots stopped asking — a root's fetch
// never left its worker — less the aggregator frames (channel engine)
// and second-round partials (baseline) that the driver's gather replaced
// with its charge, and less 592 B on each ScatterCombine variant, whose
// frames of the later supersteps send the pointers that did not move as
// a changed-slot bitmap instead of again. On an edgeless graph every vertex is a root
// throughout, so nothing is requested at all — no request channel
// carries a byte, the traffic does not grow with the vertex count, and
// the RequestRespond variants run one exchange round per superstep.
func TestRootsSkipPointerFetch(t *testing.T) {
	mixed := rootsMixed()
	sv, _ := Lookup("sv")
	for _, tc := range []struct {
		eng      Engine
		variant  string
		reqChans []int // the grandparent fetch's channel ids; the baseline has one stream
		rr       bool  // the fetch goes through RequestRespond
		netBytes int64 // on rootsMixed at 4 workers
	}{
		{EngineChannel, "basic", []int{1, 2}, false, 5593},
		{EngineChannel, "reqresp", []int{1}, true, 4160},
		{EngineChannel, "scatter", []int{1, 2}, false, 4549},
		{EngineChannel, "both", []int{1}, true, 3116},
		{EnginePregel, "basic", nil, false, 9520},
		{EnginePregel, "reqresp", nil, false, 6316},
	} {
		name := "sv/" + string(tc.eng) + "/" + tc.variant
		res, err := sv.Run(tc.eng, tc.variant, mixed, hashOpts(mixed), Params{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRoots(t, name, res.Labels, seq.ConnectedComponents(mixed))
		if res.Metrics.NetBytes != tc.netBytes {
			t.Errorf("%s: %d network bytes, want %d", name, res.Metrics.NetBytes, tc.netBytes)
		}

		var traffic []int64
		for _, n := range []int{32, 256} {
			g := graph.FromEdges(n, nil, false)
			g.Undirected = true
			tr := obs.NewTrace(testWorkers)
			opts := hashOpts(g)
			opts.Observer = tr
			res, err := sv.Run(tc.eng, tc.variant, g, opts, Params{})
			if err != nil {
				t.Fatalf("%s, %d isolated vertices: %v", name, n, err)
			}
			checkRoots(t, name, res.Labels, seq.ConnectedComponents(g))
			m := res.Metrics
			traffic = append(traffic, m.NetBytes+m.LocalBytes)
			for _, s := range tr.Samples() {
				for _, c := range tc.reqChans {
					if ch := s.Channels[c]; ch != (obs.ChannelSample{}) {
						t.Errorf("%s, %d isolated vertices: worker %d superstep %d request channel %d carried %+v", name, n, s.Worker, s.Superstep, c, ch)
					}
				}
			}
			if tc.rr && m.Rounds != int64(m.Supersteps) {
				t.Errorf("%s, %d isolated vertices: %d rounds in %d supersteps", name, n, m.Rounds, m.Supersteps)
			}
		}
		if traffic[0] != traffic[1] {
			t.Errorf("%s: an edgeless job sends %d bytes at 32 vertices, %d at 256", name, traffic[0], traffic[1])
		}
	}

	wantW, wantCnt := seq.MSFWeight(mixed)
	wantCC := seq.ConnectedComponents(mixed)
	msf, _ := Lookup("msf")
	for _, tc := range []struct {
		eng Engine
		// on rootsMixed at 4 workers; the loopback bytes were 4108 and
		// 19595 while the chase's roots still asked themselves, and 2106
		// and 6386 while aggregator partials rode the round buffers
		netBytes, localBytes int64
	}{
		{EngineChannel, 6527, 1920},
		{EnginePregel, 27377, 6259},
	} {
		name := "msf/" + string(tc.eng)
		res, err := msf.Run(tc.eng, "basic", mixed, hashOpts(mixed), Params{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MSF.Weight != wantW || len(res.MSF.Edges) != wantCnt {
			t.Errorf("%s: weight=%d count=%d want %d %d", name, res.MSF.Weight, len(res.MSF.Edges), wantW, wantCnt)
		}
		checkForest(t, name, mixed, *res.MSF, wantCC)
		if m := res.Metrics; m.NetBytes != tc.netBytes || m.LocalBytes != tc.localBytes {
			t.Errorf("%s: %d network and %d loopback bytes, want %d and %d", name, m.NetBytes, m.LocalBytes, tc.netBytes, tc.localBytes)
		}
	}
}

// --- SSSP ---

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := graph.RMAT(8, 6, 21, graph.RMATOptions{Weighted: true, MaxWeight: 50})
	want := seq.Dijkstra(g, 0)
	got, _, err := ssspChannel(g, 0, hashOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sssp[%d]=%d want %d", i, got[i], want[i])
		}
	}
	got2, met, err := ssspPropagation(g, 0, hashOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("sssp-prop[%d]=%d want %d", i, got2[i], want[i])
		}
	}
	if met.Supersteps != 2 {
		t.Errorf("sssp-prop supersteps=%d", met.Supersteps)
	}
}

func TestSSSPGrid(t *testing.T) {
	g := graph.Grid(12, 12, 9, 4)
	want := seq.Dijkstra(g, 0)
	got, _, err := ssspChannel(g, 0, hashOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grid sssp[%d]=%d want %d", i, got[i], want[i])
		}
	}
}

// --- SCC ---

func TestSCCVariantsMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random-sparse", graph.RandomDigraph(150, 220, 1)},
		{"random-dense", graph.RandomDigraph(80, 640, 2)},
		{"rmat", graph.RMAT(7, 3, 6, graph.RMATOptions{NoSelfLoops: true})},
		{"cycle", graph.FromEdges(50, cycleEdges(50), false)},
	} {
		want := seq.SCC(tc.g)
		opts := hashOpts(tc.g)
		opts.MaxSupersteps = 8000

		got, _, err := sccChannel(tc.g, opts)
		if err != nil {
			t.Fatalf("%s channel: %v", tc.name, err)
		}
		checkRoots(t, tc.name+"/channel", got, want)

		got2, _, err := sccPropagation(tc.g, opts)
		if err != nil {
			t.Fatalf("%s prop: %v", tc.name, err)
		}
		checkRoots(t, tc.name+"/prop", got2, want)

		got3, _, err := sccPregel(tc.g, opts)
		if err != nil {
			t.Fatalf("%s pregel: %v", tc.name, err)
		}
		checkRoots(t, tc.name+"/pregel", got3, want)
	}
}

func cycleEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n)}
	}
	return edges
}

func TestSCCPropagationFewerSupersteps(t *testing.T) {
	g := graph.FromEdges(200, cycleEdges(200), false)
	opts := hashOpts(g)
	opts.MaxSupersteps = 8000
	_, mChan, err := sccChannel(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, mProp, err := sccPropagation(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mProp.Supersteps >= mChan.Supersteps {
		t.Errorf("prop supersteps %d >= channel %d", mProp.Supersteps, mChan.Supersteps)
	}
}

// --- MSF ---

func TestMSFVariantsMatchKruskal(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(10, 10, 20, 3)},
		{"social", weightedSocial(7, 4, 8)},
		{"disconnected", disconnectedWeighted()},
	} {
		wantW, wantCnt := seq.MSFWeight(tc.g)
		wantCC := seq.ConnectedComponents(tc.g)

		res, _, err := msfChannel(tc.g, hashOpts(tc.g))
		if err != nil {
			t.Fatalf("%s channel: %v", tc.name, err)
		}
		if res.Weight != wantW || len(res.Edges) != wantCnt {
			t.Errorf("%s channel: weight=%d count=%d want %d %d", tc.name, res.Weight, len(res.Edges), wantW, wantCnt)
		}
		checkForest(t, tc.name+"/channel", tc.g, res, wantCC)

		res2, _, err := msfPregel(tc.g, hashOpts(tc.g))
		if err != nil {
			t.Fatalf("%s pregel: %v", tc.name, err)
		}
		if res2.Weight != wantW || len(res2.Edges) != wantCnt {
			t.Errorf("%s pregel: weight=%d count=%d want %d %d", tc.name, res2.Weight, len(res2.Edges), wantW, wantCnt)
		}
		checkForest(t, tc.name+"/pregel", tc.g, res2, wantCC)
	}
}

// checkForest validates that the reported edges form a spanning forest:
// acyclic (count == n - #components) and connecting exactly the original
// components, and that Comp agrees with connectivity.
func checkForest(t *testing.T, name string, g *graph.Graph, res MSFResult, wantCC []graph.VertexID) {
	t.Helper()
	uf := seq.NewUnionFind(g.NumVertices())
	for _, e := range res.Edges {
		if !uf.Union(int(e.Src), int(e.Dst)) {
			t.Errorf("%s: edge (%d,%d) forms a cycle", name, e.Src, e.Dst)
			return
		}
	}
	// forest must connect exactly the same components
	for v := 1; v < g.NumVertices(); v++ {
		same := uf.Find(v) == uf.Find(int(wantCC[v]))
		if !same {
			t.Errorf("%s: vertex %d not connected to its component root %d", name, v, wantCC[v])
			return
		}
	}
	// Comp must be constant within components
	for v := 0; v < g.NumVertices(); v++ {
		if res.Comp[v] != res.Comp[wantCC[v]] {
			t.Errorf("%s: Comp[%d]=%d but Comp[root]=%d", name, v, res.Comp[v], res.Comp[wantCC[v]])
			return
		}
	}
}

func weightedSocial(scale, ef int, seed int64) *graph.Graph {
	g := graph.RMAT(scale, ef, seed, graph.RMATOptions{Weighted: true, MaxWeight: 30, NoSelfLoops: true})
	return graph.Undirectify(g)
}

func disconnectedWeighted() *graph.Graph {
	edges := []graph.Edge{
		{Src: 0, Dst: 1, Weight: 4}, {Src: 1, Dst: 0, Weight: 4},
		{Src: 1, Dst: 2, Weight: 2}, {Src: 2, Dst: 1, Weight: 2},
		{Src: 0, Dst: 2, Weight: 7}, {Src: 2, Dst: 0, Weight: 7},
		{Src: 4, Dst: 5, Weight: 1}, {Src: 5, Dst: 4, Weight: 1},
	}
	g := graph.FromEdges(7, edges, true)
	g.Undirected = true
	return g
}
