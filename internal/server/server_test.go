package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/catalog"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/seq"
)

// testService spins up the full stack: catalog, manager, HTTP server.
func testService(t *testing.T, poolWorkers int) (*catalog.Catalog, *jobs.Manager, *httptest.Server) {
	t.Helper()
	cat := catalog.New(8, 0)
	for _, spec := range []catalog.Spec{
		{Name: "social", Gen: "social:scale=8,ef=4,seed=11"},
		{Name: "grid", Gen: "grid:rows=9,cols=8,maxw=40,seed=5"},
	} {
		if err := cat.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	mgr := jobs.NewManager(cat, poolWorkers)
	ts := httptest.NewServer(New(cat, mgr).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(mgr.Close)
	return cat, mgr, ts
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: HTTP %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
}

func postJob(t *testing.T, base string, req jobs.Request) (jobs.Snapshot, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap jobs.Snapshot
	_ = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, resp.StatusCode
}

func waitDone(t *testing.T, base, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var snap jobs.Snapshot
		getJSON(t, base+"/v1/jobs/"+id, http.StatusOK, &snap)
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Snapshot{}
}

// samePartition asserts two labelings induce the same equivalence
// classes (labels may differ, the grouping may not).
func samePartition(t *testing.T, what string, got, want []graph.VertexID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	fwd := map[graph.VertexID]graph.VertexID{}
	rev := map[graph.VertexID]graph.VertexID{}
	for i := range got {
		if m, ok := fwd[got[i]]; ok && m != want[i] {
			t.Fatalf("%s: vertex %d splits class %d", what, i, got[i])
		}
		if m, ok := rev[want[i]]; ok && m != got[i] {
			t.Fatalf("%s: vertex %d merges classes", what, i)
		}
		fwd[got[i]] = want[i]
		rev[want[i]] = got[i]
	}
}

type resultPayloadT struct {
	ID       string             `json:"id"`
	Kind     string             `json:"kind"`
	Vertices int                `json:"vertices"`
	Offset   int                `json:"offset"`
	Labels   []graph.VertexID   `json:"labels"`
	Ranks    []float64          `json:"ranks"`
	Dists    []int64            `json:"dists"`
	Metrics  algorithms.Metrics `json:"metrics"`
}

// TestConcurrentMixedJobsEndToEnd is the subsystem's acceptance test:
// one daemon, one shared dataset, 8 simultaneous jobs across 4
// algorithms on both engines; every result must match the sequential
// reference and the dataset must load exactly once.
func TestConcurrentMixedJobsEndToEnd(t *testing.T) {
	cat, mgr, ts := testService(t, 4)
	base := ts.URL

	const prIters = 15
	reqs := []jobs.Request{
		{Algorithm: "pagerank", Engine: "channel", Dataset: "social", Params: algorithms.Params{Iterations: prIters}},
		{Algorithm: "pagerank", Engine: "pregel", Dataset: "social", Params: algorithms.Params{Iterations: prIters}},
		{Algorithm: "wcc", Engine: "channel", Dataset: "social"},
		{Algorithm: "wcc", Engine: "pregel", Dataset: "social"},
		{Algorithm: "sv", Engine: "channel", Dataset: "social"},
		{Algorithm: "sv", Engine: "pregel", Dataset: "social"},
		{Algorithm: "scc", Engine: "channel", Dataset: "social"},
		{Algorithm: "scc", Engine: "pregel", Dataset: "social"},
	}

	// submit all jobs at the same moment
	ids := make([]string, len(reqs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req jobs.Request) {
			defer wg.Done()
			snap, status := postJob(t, base, req)
			mu.Lock()
			defer mu.Unlock()
			if status != http.StatusAccepted {
				t.Errorf("submit %+v: HTTP %d", req, status)
				return
			}
			ids[i] = snap.ID
		}(i, req)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("submission failed")
	}

	results := make([]resultPayloadT, len(ids))
	for i, id := range ids {
		snap := waitDone(t, base, id)
		if snap.State != jobs.StateDone {
			t.Fatalf("job %s (%+v): state=%s err=%s", id, reqs[i], snap.State, snap.Error)
		}
		if snap.Metrics == nil || string(snap.Metrics.Engine) != reqs[i].Engine || snap.Metrics.Supersteps == 0 {
			t.Fatalf("job %s: bad metrics %+v", id, snap.Metrics)
		}
		getJSON(t, base+"/v1/jobs/"+id+"/result", http.StatusOK, &results[i])
	}

	// sequential references on the exact cached graph
	entry, err := cat.Get("social")
	if err != nil {
		t.Fatal(err)
	}
	g := entry.Graph
	wantRanks := seq.PageRank(g, prIters)
	wantCC := seq.ConnectedComponents(g)
	wantSCC := seq.SCC(g)

	for i, req := range reqs {
		res := results[i]
		label := fmt.Sprintf("%s/%s", req.Algorithm, req.Engine)
		if res.Vertices != g.NumVertices() {
			t.Fatalf("%s: %d vertices, want %d", label, res.Vertices, g.NumVertices())
		}
		switch req.Algorithm {
		case "pagerank":
			for v := range wantRanks {
				if math.Abs(res.Ranks[v]-wantRanks[v]) > 1e-9 {
					t.Fatalf("%s: rank[%d]=%g want %g", label, v, res.Ranks[v], wantRanks[v])
				}
			}
		case "wcc", "sv":
			samePartition(t, label, res.Labels, wantCC)
		case "scc":
			samePartition(t, label, res.Labels, wantSCC)
		}
	}

	// the 8 jobs plus the reference Get hit one single load
	body := getText(t, base+"/metrics")
	for _, want := range []string{
		"graphd_catalog_loads_total 1\n",
		`graphd_jobs{state="done"} 8` + "\n",
		`graphd_jobs{state="failed"} 0` + "\n",
		"graphd_job_workers 4\n",
		"graphd_catalog_max_bytes 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, grepLines(body, "graphd_"))
		}
	}
	for _, name := range []string{"go_heap_alloc_bytes", "go_heap_sys_bytes"} {
		if v, ok := metricValue(body, name); !ok || v == 0 {
			t.Fatalf("/metrics: %s = %v (present: %v), want non-zero", name, v, ok)
		}
	}

	// clean shutdown: manager drains and refuses new work
	mgr.Close()
	if _, status := postJob(t, base, reqs[0]); status != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: HTTP %d, want 503", status)
	}
}

func TestResultPagingAndSSSP(t *testing.T) {
	cat, _, ts := testService(t, 2)
	base := ts.URL

	snap, status := postJob(t, base, jobs.Request{Algorithm: "sssp", Engine: "channel",
		Dataset: "grid", Params: algorithms.Params{Source: 4}})
	if status != http.StatusAccepted {
		t.Fatalf("HTTP %d", status)
	}
	waitDone(t, base, snap.ID)

	entry, err := cat.Get("grid")
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Dijkstra(entry.Graph, 4)

	var full resultPayloadT
	getJSON(t, base+"/v1/jobs/"+snap.ID+"/result", http.StatusOK, &full)
	if full.Kind != "dists" || len(full.Dists) != len(want) {
		t.Fatalf("kind=%s n=%d", full.Kind, len(full.Dists))
	}
	for i := range want {
		if full.Dists[i] != want[i] {
			t.Fatalf("dist[%d]=%d want %d", i, full.Dists[i], want[i])
		}
	}

	var page resultPayloadT
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%s/result?offset=10&limit=7", base, snap.ID), http.StatusOK, &page)
	if page.Offset != 10 || len(page.Dists) != 7 || page.Vertices != len(want) {
		t.Fatalf("offset=%d len=%d vertices=%d", page.Offset, len(page.Dists), page.Vertices)
	}
	for i, d := range page.Dists {
		if d != want[10+i] {
			t.Fatalf("paged dist mismatch at %d", i)
		}
	}

	getJSON(t, base+"/v1/jobs/"+snap.ID+"/result?offset=-1", http.StatusBadRequest, nil)
}

func TestAPIErrorsAndIntrospection(t *testing.T) {
	_, _, ts := testService(t, 1)
	base := ts.URL

	getJSON(t, base+"/v1/healthz", http.StatusOK, nil)
	getJSON(t, base+"/v1/jobs/j-999999", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/jobs/j-999999/result", http.StatusNotFound, nil)

	// malformed and invalid submissions
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: HTTP %d", resp.StatusCode)
	}
	if _, status := postJob(t, base, jobs.Request{Algorithm: "nope", Dataset: "social"}); status != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: HTTP %d", status)
	}
	if _, status := postJob(t, base, jobs.Request{Algorithm: "wcc", Dataset: "nope"}); status != http.StatusBadRequest {
		t.Fatalf("unknown dataset: HTTP %d", status)
	}

	// a failed job exists: its /result is a 409 conflict, not a 404
	failed, _ := postJob(t, base, jobs.Request{Algorithm: "msf", Dataset: "social"})
	if snap := waitDone(t, base, failed.ID); snap.State != jobs.StateFailed {
		t.Fatalf("msf on unweighted dataset: state=%s", snap.State)
	}
	getJSON(t, base+"/v1/jobs/"+failed.ID+"/result", http.StatusConflict, nil)

	// introspection endpoints
	var ds struct {
		Datasets []catalog.Info `json:"datasets"`
	}
	getJSON(t, base+"/v1/datasets", http.StatusOK, &ds)
	if len(ds.Datasets) != 2 || ds.Datasets[0].Name != "social" {
		t.Fatalf("datasets %+v", ds.Datasets)
	}
	var algs struct {
		Algorithms []struct {
			Name     string              `json:"name"`
			Variants map[string][]string `json:"variants"`
		} `json:"algorithms"`
	}
	getJSON(t, base+"/v1/algorithms", http.StatusOK, &algs)
	if len(algs.Algorithms) != 7 {
		t.Fatalf("%d algorithms", len(algs.Algorithms))
	}
	for _, a := range algs.Algorithms {
		if len(a.Variants["channel"]) == 0 || len(a.Variants["pregel"]) == 0 {
			t.Fatalf("%s: missing engine variants %+v", a.Name, a.Variants)
		}
	}

	// listing reflects submitted jobs
	snap, _ := postJob(t, base, jobs.Request{Algorithm: "wcc", Dataset: "social"})
	waitDone(t, base, snap.ID)
	var list struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	getJSON(t, base+"/v1/jobs", http.StatusOK, &list)
	if len(list.Jobs) != 2 || list.Jobs[1].ID != snap.ID {
		t.Fatalf("jobs list %+v", list.Jobs)
	}
}

// Placement selection over the wire: a greedy-placement job round-trips
// through /v1, reports placement + edge cut in its metrics, and
// produces the same components as the default hash placement.
func TestPlacementOverHTTP(t *testing.T) {
	cat, _, ts := testService(t, 1)
	// a grid large enough that BFS region growing clearly beats hash
	if err := cat.Register(catalog.Spec{Name: "road", Gen: "grid:rows=24,cols=24,maxw=40,seed=5"}); err != nil {
		t.Fatal(err)
	}
	if _, code := postJob(t, ts.URL, jobs.Request{Algorithm: "wcc", Dataset: "road", Placement: "metis"}); code != http.StatusBadRequest {
		t.Fatalf("bad placement: HTTP %d", code)
	}
	run := func(placement string) (jobs.Snapshot, resultPayloadT) {
		snap, code := postJob(t, ts.URL, jobs.Request{Algorithm: "wcc", Dataset: "road", Placement: placement})
		if code != http.StatusAccepted {
			t.Fatalf("placement %q: HTTP %d", placement, code)
		}
		snap = waitDone(t, ts.URL, snap.ID)
		if snap.State != jobs.StateDone {
			t.Fatalf("placement %q: state %s (%s)", placement, snap.State, snap.Error)
		}
		var res resultPayloadT
		getJSON(t, ts.URL+"/v1/jobs/"+snap.ID+"/result", http.StatusOK, &res)
		return snap, res
	}
	hSnap, hRes := run("hash")
	gSnap, gRes := run("greedy")
	if hSnap.Metrics.Placement != "hash" || gSnap.Metrics.Placement != "greedy" {
		t.Fatalf("metrics placements: %q / %q", hSnap.Metrics.Placement, gSnap.Metrics.Placement)
	}
	if gSnap.Metrics.EdgeCut <= 0 || gSnap.Metrics.EdgeCut >= hSnap.Metrics.EdgeCut {
		t.Fatalf("edge cuts: greedy %.3f vs hash %.3f", gSnap.Metrics.EdgeCut, hSnap.Metrics.EdgeCut)
	}
	samePartition(t, "wcc hash vs greedy", hRes.Labels, gRes.Labels)
}

// waitState polls until the job leaves the pending state.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var snap jobs.Snapshot
		getJSON(t, base+"/v1/jobs/"+id, http.StatusOK, &snap)
		if snap.State == jobs.StateRunning || snap.State.Terminal() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// Live datasets over HTTP: batch ingest (text and JSON bodies), forced
// compaction, the detail endpoint's epoch/delta stats, epoch-stamped
// job metrics, and ingest sustained concurrently with running jobs.
func TestLiveIngestJobsAndDetail(t *testing.T) {
	cat, _, ts := testService(t, 4)
	base := ts.URL
	t.Cleanup(cat.Close)
	if err := cat.Register(catalog.Spec{Name: "feed", Gen: "rmat:scale=8,ef=4,seed=33", Mutable: true}); err != nil {
		t.Fatal(err)
	}

	// ingesting into an immutable dataset is a conflict, decided from
	// the spec alone — the rejected request must not load the dataset
	resp, err := http.Post(base+"/v1/datasets/social/edges", "text/plain", strings.NewReader("1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("immutable ingest: HTTP %d, want 409", resp.StatusCode)
	}
	var dl struct {
		Datasets []catalog.Info `json:"datasets"`
	}
	getJSON(t, base+"/v1/datasets", http.StatusOK, &dl)
	for _, d := range dl.Datasets {
		if d.Name == "social" && d.Loaded {
			t.Fatal("rejected ingest loaded the immutable dataset")
		}
	}
	// unknown dataset is a 404; malformed bodies are 400
	resp, _ = http.Post(base+"/v1/datasets/nope/edges", "text/plain", strings.NewReader("1 2\n"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ingest: HTTP %d, want 404", resp.StatusCode)
	}
	resp, _ = http.Post(base+"/v1/datasets/feed/edges", "text/plain", strings.NewReader("bogus\n"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest: HTTP %d, want 400", resp.StatusCode)
	}

	// text body + forced compaction
	var ing struct {
		Inserts int `json:"inserts"`
		Deletes int `json:"deletes"`
		Live    struct {
			Epoch       uint64 `json:"epoch"`
			Compactions uint64 `json:"compactions"`
			PendingOps  int    `json:"pending_ops"`
		} `json:"live"`
	}
	resp, err = http.Post(base+"/v1/datasets/feed/edges?compact=now", "text/plain",
		strings.NewReader("# two inserts, one delete\n1 2 7\n3 4\n- 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ing.Inserts != 2 || ing.Deletes != 1 || ing.Live.Epoch != 2 || ing.Live.PendingOps != 0 {
		t.Fatalf("text ingest response %+v", ing)
	}

	// JSON body
	jsonBody := `{"inserts":[{"src":5,"dst":6,"weight":3}],"deletes":[{"src":1,"dst":2}]}`
	resp, err = http.Post(base+"/v1/datasets/feed/edges?compact=now", "application/json", strings.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ing.Inserts != 1 || ing.Deletes != 1 || ing.Live.Epoch != 3 {
		t.Fatalf("json ingest response %+v", ing)
	}

	// jobs record the epoch they executed against
	snap, status := postJob(t, base, jobs.Request{Algorithm: "wcc", Dataset: "feed"})
	if status != http.StatusAccepted {
		t.Fatalf("HTTP %d", status)
	}
	snap = waitDone(t, base, snap.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("state %s (%s)", snap.State, snap.Error)
	}
	if snap.Metrics == nil || snap.Metrics.Epoch != 3 {
		t.Fatalf("job metrics epoch = %+v, want 3", snap.Metrics)
	}

	// sustained concurrent ingest + jobs: no torn epochs, every job
	// lands on some valid epoch
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			body := fmt.Sprintf("%d %d\n- %d %d\n", i%251, (i*7)%251, (i*3)%251, (i*11)%251)
			resp, err := http.Post(base+"/v1/datasets/feed/edges", "text/plain", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			i++
		}
	}()
	var ids []string
	for k := 0; k < 6; k++ {
		s, code := postJob(t, base, jobs.Request{Algorithm: "pagerank", Dataset: "feed",
			Engine: []string{"channel", "pregel"}[k%2], Params: algorithms.Params{Iterations: 10}})
		if code != http.StatusAccepted {
			t.Fatalf("HTTP %d", code)
		}
		ids = append(ids, s.ID)
	}
	for _, id := range ids {
		s := waitDone(t, base, id)
		if s.State != jobs.StateDone {
			t.Fatalf("job %s: %s (%s)", id, s.State, s.Error)
		}
		if s.Metrics.Epoch < 3 {
			t.Fatalf("job %s: epoch %d", id, s.Metrics.Epoch)
		}
	}
	close(stop)
	wg.Wait()

	// quiesce, compact, and check end-state equivalence over HTTP: WCC
	// on the live dataset equals the sequential oracle on the exact
	// current epoch graph
	resp, _ = http.Post(base+"/v1/datasets/feed/edges?compact=now", "text/plain", strings.NewReader("# flush\n250 0\n"))
	resp.Body.Close()
	entry, err := cat.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	ep := entry.Live().Pin()
	defer ep.Release()
	want := seq.ConnectedComponents(graph.Undirectify(ep.Graph()))
	snap, _ = postJob(t, base, jobs.Request{Algorithm: "wcc", Dataset: "feed"})
	snap = waitDone(t, base, snap.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("final wcc: %s (%s)", snap.State, snap.Error)
	}
	if snap.Metrics.Epoch != ep.Seq() {
		t.Fatalf("final wcc epoch %d, want %d", snap.Metrics.Epoch, ep.Seq())
	}
	var res resultPayloadT
	getJSON(t, base+"/v1/jobs/"+snap.ID+"/result", http.StatusOK, &res)
	samePartition(t, "live wcc vs oracle", res.Labels, want)

	// detail endpoint: live stats + materialized views
	var detail struct {
		Name    string `json:"name"`
		Mutable bool   `json:"mutable"`
		Epoch   uint64 `json:"epoch"`
		Views   []struct {
			Placement  string  `json:"placement"`
			Undirected bool    `json:"undirected"`
			EdgeCut    float64 `json:"edge_cut"`
		} `json:"views"`
		Live *struct {
			Epoch       uint64 `json:"epoch"`
			Compactions uint64 `json:"compactions"`
			Retired     uint64 `json:"retired_epochs"`
			LiveEpochs  int    `json:"live_epochs"`
		} `json:"live"`
	}
	getJSON(t, base+"/v1/datasets/feed", http.StatusOK, &detail)
	if !detail.Mutable || detail.Live == nil || detail.Live.Epoch != ep.Seq() || detail.Live.Compactions < 3 {
		t.Fatalf("detail %+v", detail)
	}
	hasUndir := false
	for _, v := range detail.Views {
		if v.Undirected {
			hasUndir = true
		}
	}
	if !hasUndir {
		t.Fatalf("detail views missing the undirected WCC view: %+v", detail.Views)
	}
	// with the current epoch pinned here plus all others retired,
	// resident epochs must not accumulate
	if detail.Live.LiveEpochs != 1 {
		t.Fatalf("resident epochs %d, want 1 (retired=%d)", detail.Live.LiveEpochs, detail.Live.Retired)
	}
	getJSON(t, base+"/v1/datasets/nope", http.StatusNotFound, nil)

	// static datasets also serve a detail payload (no live section)
	var sd struct {
		Name string    `json:"name"`
		Live *struct{} `json:"live"`
	}
	getJSON(t, base+"/v1/datasets/social", http.StatusOK, &sd)
	if sd.Live != nil {
		t.Fatalf("static dataset reports live stats")
	}
}

// DELETE /v1/jobs/{id} on a running job aborts it through the barrier.
func TestCancelRunningJobOverHTTP(t *testing.T) {
	_, _, ts := testService(t, 1)
	base := ts.URL

	snap, status := postJob(t, base, jobs.Request{Algorithm: "pagerank", Dataset: "grid",
		Params: algorithms.Params{Iterations: 150000}, MaxSupersteps: 200001})
	if status != http.StatusAccepted {
		t.Fatalf("HTTP %d", status)
	}
	waitRunning(t, base, snap.ID)

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+snap.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job: HTTP %d", resp.StatusCode)
	}
	final := waitDone(t, base, snap.ID)
	if final.State != jobs.StateCancelled {
		t.Fatalf("state %s (%s), want cancelled", final.State, final.Error)
	}
	// its result is a conflict, and a second DELETE now errors (terminal)
	getJSON(t, base+"/v1/jobs/"+snap.ID+"/result", http.StatusConflict, nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE: HTTP %d, want 409", resp.StatusCode)
	}
}
