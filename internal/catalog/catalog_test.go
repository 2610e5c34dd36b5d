package catalog

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/partition"
)

func TestRegisterValidation(t *testing.T) {
	c := New(4, 0)
	if err := c.Register(Spec{Name: "", Gen: "chain:n=5"}); err == nil {
		t.Fatal("expected error for empty name")
	}
	if err := c.Register(Spec{Name: "x"}); err == nil {
		t.Fatal("expected error for neither path nor gen")
	}
	if err := c.Register(Spec{Name: "x", Path: "a", Gen: "chain:n=5"}); err == nil {
		t.Fatal("expected error for both path and gen")
	}
	if err := c.Register(Spec{Name: "x", Gen: "warp:n=5"}); err == nil {
		t.Fatal("expected error for bad generator")
	}
	if err := c.Register(Spec{Name: "x", Gen: "chain:n=5"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(Spec{Name: "x", Gen: "chain:n=9"}); err == nil {
		t.Fatal("expected error for duplicate name")
	}
	if !c.Has("x") || c.Has("y") {
		t.Fatal("Has is wrong")
	}
}

func TestGetSingleflight(t *testing.T) {
	c := New(4, 0)
	if err := c.Register(Spec{Name: "g", Gen: "social:scale=8,ef=3,seed=2"}); err != nil {
		t.Fatal(err)
	}
	const n = 16
	entries := make([]*Entry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.Get("g")
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatal("Get returned distinct entries")
		}
	}
	st := c.Stats()
	if st.Loads != 1 {
		t.Fatalf("loads=%d want 1", st.Loads)
	}
	if st.Hits != n-1 {
		t.Fatalf("hits=%d want %d", st.Hits, n-1)
	}
	if st.Loaded != 1 || st.Bytes <= 0 {
		t.Fatalf("loaded=%d bytes=%d", st.Loaded, st.Bytes)
	}

	// the undirected view of an already-undirected graph is the entry's
	// own graph under its default hash view
	v, err := entries[0].View("", true)
	if err != nil {
		t.Fatal(err)
	}
	if v.Graph != entries[0].Graph || v.Part != entries[0].Part {
		t.Fatal("undirected view of undirected graph should be the default view")
	}
}

func TestDerivedUndirected(t *testing.T) {
	c := New(4, 0)
	if err := c.Register(Spec{Name: "d", Gen: "digraph:n=50,m=200,seed=3"}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	base := c.Stats().Bytes
	v1, err := e.View("", true)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.View("", true)
	if err != nil || v1 != v2 {
		t.Fatal("derived undirected view not cached")
	}
	if !v1.Graph.Undirected || v1.Graph == e.Graph {
		t.Fatal("derived graph should be a new undirected graph")
	}
	if c.Stats().Bytes <= base || e.Bytes() <= base {
		t.Fatalf("derived graph not charged to the budget: %d <= %d", c.Stats().Bytes, base)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, 1) // 1-byte budget: at most the newest entry survives
	for _, name := range []string{"a", "b"} {
		if err := c.Register(Spec{Name: name, Gen: "chain:n=100"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("b"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Loaded != 1 {
		t.Fatalf("evictions=%d loaded=%d", st.Evictions, st.Loaded)
	}
	// a evicted; getting it again reloads
	if _, err := c.Get("a"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Loads != 3 {
		t.Fatalf("loads=%d want 3", st.Loads)
	}
}

func TestFileLoadPrefersBinarySnapshot(t *testing.T) {
	dir := t.TempDir()
	g := graph.Grid(5, 6, 10, 7)

	// A text edge list whose .bin sibling holds a DIFFERENT graph proves
	// which source was read.
	el := filepath.Join(dir, "g.el")
	f, err := os.Create(el)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, graph.Chain(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := graph.WriteSnapshotFile(el+graph.SnapshotExt, g, nil); err != nil {
		t.Fatal(err)
	}

	c := New(4, 0)
	if err := c.Register(Spec{Name: "g", Path: el}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph.NumVertices() != g.NumVertices() || e.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("loaded text list, not snapshot: n=%d m=%d", e.Graph.NumVertices(), e.Graph.NumEdges())
	}

	// a snapshot OLDER than the text list is stale and must be ignored
	stale := filepath.Join(dir, "stale.el")
	fs, err := os.Create(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(fs, graph.Chain(5)); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if err := graph.WriteSnapshotFile(stale+graph.SnapshotExt, g, nil); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale+graph.SnapshotExt, old, old); err != nil {
		t.Fatal(err)
	}
	cs := New(4, 0)
	if err := cs.Register(Spec{Name: "s", Path: stale}); err != nil {
		t.Fatal(err)
	}
	es, err := cs.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	if es.Graph.NumVertices() != 5 {
		t.Fatalf("stale snapshot served: n=%d want 5 (from text)", es.Graph.NumVertices())
	}

	// without a snapshot the text list is parsed
	c2 := New(4, 0)
	el2 := filepath.Join(dir, "plain.el")
	f2, err := os.Create(el2)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f2, graph.Chain(3)); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	if err := c2.Register(Spec{Name: "p", Path: el2}); err != nil {
		t.Fatal(err)
	}
	e2, err := c2.Get("p")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Graph.NumVertices() != 3 {
		t.Fatalf("n=%d want 3", e2.Graph.NumVertices())
	}
}

func TestFailedLoadRetries(t *testing.T) {
	c := New(4, 0)
	missing := filepath.Join(t.TempDir(), "missing.el")
	if err := c.Register(Spec{Name: "m", Path: missing}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("m"); err == nil {
		t.Fatal("expected load failure")
	}
	// create the file; the failed load must not be cached
	f, err := os.Create(missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, graph.Chain(4)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	e, err := c.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph.NumVertices() != 4 {
		t.Fatalf("n=%d", e.Graph.NumVertices())
	}
}

func TestParseGenErrors(t *testing.T) {
	cases := []string{
		"warp:n=1",
		"chain:n=abc",
		"chain:n=5,bogus=1",
		"rmat:scale=zz",
		"grid:rows=3,cols=q",
		"chain:=5",
	}
	for _, expr := range cases {
		if _, err := ParseGen(expr); err == nil {
			t.Errorf("expected error for %q", expr)
		}
	}
	for _, expr := range []string{
		"chain:n=5", "tree:n=9,seed=2", "grid:rows=3,cols=4",
		"rmat:scale=4,ef=2,weighted,maxw=9", "rmat:scale=4,undirected",
		"social:scale=4,ef=2", "digraph:n=10,m=20", "forest:n=10,k=2",
	} {
		g, err := Generate(expr)
		if err != nil {
			t.Errorf("%q: %v", expr, err)
			continue
		}
		if g.NumVertices() == 0 {
			t.Errorf("%q: empty graph", expr)
		}
	}
}

// Views are built once per (placement, orientation), run on pre-built
// fragments, and greedy views report a smaller edge cut on a grid.
func TestPlacementViews(t *testing.T) {
	c := New(4, 0)
	if err := c.Register(Spec{Name: "road", Gen: "grid:rows=20,cols=20,maxw=10,seed=1"}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Get("road")
	if err != nil {
		t.Fatal(err)
	}
	// the default hash view is built eagerly at load time
	hv, err := e.View("", false)
	if err != nil {
		t.Fatal(err)
	}
	if hv.Part != e.Part || hv.Frags == nil || hv.Frags.Part != hv.Part {
		t.Fatal("default view not the eagerly built hash view")
	}
	hv2, err := e.View(partition.PlacementHash, false)
	if err != nil || hv2 != hv {
		t.Fatalf("hash view not cached: %v", err)
	}
	base := e.Bytes()
	gv, err := e.View(partition.PlacementGreedy, false)
	if err != nil {
		t.Fatal(err)
	}
	if gv2, err := e.View(partition.PlacementGreedy, false); err != nil || gv2 != gv {
		t.Fatal("greedy view not cached")
	}
	if e.Bytes() <= base {
		t.Fatal("greedy view not charged to the byte budget")
	}
	if gv.EdgeCut >= hv.EdgeCut {
		t.Fatalf("greedy cut %.3f not below hash cut %.3f", gv.EdgeCut, hv.EdgeCut)
	}
	if _, err := e.View("metis", false); err == nil {
		t.Fatal("unknown placement accepted")
	}
}

// A spec-level placement and snapshot-embedded owner vectors: the
// catalog must reuse the embedded partition instead of re-partitioning.
func TestSnapshotEmbeddedPlacement(t *testing.T) {
	dir := t.TempDir()
	g := graph.Grid(10, 10, 5, 2)
	p := partition.MustGreedy(g, 4)
	snap := filepath.Join(dir, "road"+graph.SnapshotExt)
	err := graph.WriteSnapshotFile(snap, g, []graph.Placement{
		{Name: partition.PlacementGreedy, Workers: 4, Owner: p.Owners()},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(4, 0)
	if err := c.Register(Spec{Name: "road", Path: snap, Placement: partition.PlacementGreedy}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Get("road")
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.View(partition.PlacementGreedy, false)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumVertices(); u++ {
		if v.Part.Owner(graph.VertexID(u)) != p.Owner(graph.VertexID(u)) {
			t.Fatalf("vertex %d: embedded placement not reused", u)
		}
	}
	// a catalog with a different worker count ignores the embedded vector
	c2 := New(2, 0)
	if err := c2.Register(Spec{Name: "road", Path: snap}); err != nil {
		t.Fatal(err)
	}
	e2, err := c2.Get("road")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Part.NumWorkers() != 2 {
		t.Fatalf("worker count %d want 2", e2.Part.NumWorkers())
	}
}

func TestRegisterRejectsBadPlacement(t *testing.T) {
	c := New(4, 0)
	if err := c.Register(Spec{Name: "x", Gen: "chain:n=10", Placement: "metis"}); err == nil {
		t.Fatal("bad spec placement accepted")
	}
}

// Mutable specs: validation, live entry wiring, epoch bytes charged to
// and released from the LRU budget, and Close stopping the compactor.
func TestMutableSpecValidation(t *testing.T) {
	c := New(4, 0)
	err := c.Register(Spec{Name: "bad", Gen: "chain:n=10", Mutable: true, Undirected: true})
	if err == nil || !strings.Contains(err.Error(), "directed base") {
		t.Fatalf("mutable+undirected: %v", err)
	}
	if err := c.Register(Spec{Name: "ok", Gen: "chain:n=10", Mutable: true}); err != nil {
		t.Fatal(err)
	}
}

func TestLiveEntryEpochBytesInBudget(t *testing.T) {
	c := New(4, 0)
	defer c.Close()
	if err := c.Register(Spec{Name: "feed", Gen: "rmat:scale=8,ef=6,seed=5", Mutable: true}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	lg := e.Live()
	if lg == nil {
		t.Fatal("mutable entry has no live graph")
	}
	base := e.Bytes()
	if base <= 0 || c.Stats().Bytes != base {
		t.Fatalf("base bytes %d, stats %+v", base, c.Stats())
	}

	// pin the old epoch so the compaction holds two epochs resident
	ep1 := lg.Pin()
	if err := lg.Apply(live.Batch{Ops: []live.Op{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}}); err != nil {
		t.Fatal(err)
	}
	lg.CompactNow()
	during := e.Bytes()
	if during <= base {
		t.Fatalf("second epoch not charged: %d -> %d", base, during)
	}
	ep1.Release() // retires epoch 1, releasing its bytes
	after := e.Bytes()
	if after >= during {
		t.Fatalf("retired epoch still charged: %d -> %d", during, after)
	}
	if got := c.Stats().Bytes; got != after {
		t.Fatalf("catalog stats bytes %d != entry bytes %d", got, after)
	}

	// the detail payload reflects the live state
	d, err := c.DetailOf("feed")
	if err != nil {
		t.Fatal(err)
	}
	if d.Live == nil || d.Live.Epoch != 2 || d.Live.RetiredEpochs != 1 || !d.Mutable {
		t.Fatalf("detail %+v", d)
	}
	if len(d.Views) == 0 || d.Views[0].Placement != "hash" {
		t.Fatalf("detail views %+v", d.Views)
	}
	// list shows the current epoch's shape
	infos := c.List()
	if len(infos) != 1 || infos[0].Epoch != 2 {
		t.Fatalf("list %+v", infos)
	}

	c.Close()
	if err := lg.Apply(live.Batch{Ops: []live.Op{{Src: 0, Dst: 2}}}); err == nil {
		t.Fatal("apply after catalog close should fail")
	}
	if _, err := c.Get("feed"); err == nil {
		t.Fatal("get after close should fail")
	}
}

func TestDetailOfUnloadedAndUnknown(t *testing.T) {
	c := New(4, 0)
	if err := c.Register(Spec{Name: "cold", Gen: "chain:n=10"}); err != nil {
		t.Fatal(err)
	}
	d, err := c.DetailOf("cold")
	if err != nil {
		t.Fatal(err)
	}
	if d.Loaded || len(d.Views) != 0 || d.Live != nil {
		t.Fatalf("unloaded detail %+v", d)
	}
	if _, err := c.DetailOf("nope"); err == nil {
		t.Fatal("expected unknown-dataset error")
	}
}

// Live entries are never LRU victims: their ingested mutations are not
// reconstructible from the spec, so eviction would silently reload the
// pristine base. Static entries still evict around them.
func TestLRUNeverEvictsLiveEntries(t *testing.T) {
	c := New(4, 1) // budget of one byte: everything is over budget
	defer c.Close()
	for _, spec := range []Spec{
		{Name: "feed", Gen: "rmat:scale=7,ef=4,seed=1", Mutable: true},
		{Name: "s1", Gen: "chain:n=500"},
		{Name: "s2", Gen: "chain:n=500"},
	} {
		if err := c.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	feed, err := c.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	if err := feed.Live().Apply(live.Batch{Ops: []live.Op{{Src: 0, Dst: 99}}}); err != nil {
		t.Fatal(err)
	}
	feed.Live().CompactNow()
	if _, err := c.Get("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("s2"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("static entries not evicted: %+v", st)
	}
	// the live entry survived with its mutations: same object, epoch 2
	again, err := c.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	if again != feed {
		t.Fatal("live entry was evicted and reloaded")
	}
	if got := again.Live().Stats().Epoch; got != 2 {
		t.Fatalf("live entry epoch %d, want 2 (mutations lost?)", got)
	}
	// live entries do not pin epoch 1 on the entry itself; introspection
	// goes through CurrentGraph
	if feed.Graph != nil || feed.Part != nil {
		t.Fatal("live entry retains the load-time graph/partition")
	}
	if g := feed.CurrentGraph(); g == nil || g.NumVertices() == 0 {
		t.Fatal("CurrentGraph unusable for live entry")
	}
}

// A view's scatter plans are derived on first use, charged to the
// catalog budget exactly once and shared by everyone who asks again —
// the lifetime of the ScatterCombine pre-calculation is the view's, not
// a job's.
func TestScatterPlanChargedOncePerView(t *testing.T) {
	c := New(4, 0)
	if err := c.Register(Spec{Name: "d", Gen: "digraph:n=200,m=900,seed=3"}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.View("", false)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Stats().Bytes
	var plans int64
	for w := 0; w < v.Frags.NumWorkers(); w++ {
		plans += v.Frags.Frag(w).ScatterPlan().Bytes()
	}
	if got := c.Stats().Bytes - base; got != plans || plans == 0 {
		t.Fatalf("catalog charged %d bytes for %d bytes of scatter plans", got, plans)
	}
	again, err := e.View("", false)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < v.Frags.NumWorkers(); w++ {
		if again.Frags.Frag(w).ScatterPlan() != v.Frags.Frag(w).ScatterPlan() {
			t.Fatal("a second acquire of the view got a different plan")
		}
	}
	if got := c.Stats().Bytes - base; got != plans {
		t.Fatalf("plans charged again: %d bytes for %d", got, plans)
	}
}
