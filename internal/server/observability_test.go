package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/catalog"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workerproc/wptest"
)

// TestMain implements the graphworker re-exec so the e2e tests can run
// real multi-process jobs through the HTTP API — each manager on the warm
// worker pool it owns, as in graphd — and fails the binary if a worker
// process is still there at exit.
func TestMain(m *testing.M) { wptest.Main(m) }

// tracePayloadT mirrors the trace endpoint's JSON for decoding.
type tracePayloadT struct {
	ID         string          `json:"id"`
	State      jobs.State      `json:"state"`
	Workers    int             `json:"workers"`
	Supersteps []obs.TraceStep `json:"supersteps"`
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// End-to-end observability: concurrent in-process and multi-process
// jobs through the HTTP API while /metrics is scraped, then trace
// timelines for both fabrics via /v1/jobs/{id}/trace with identical
// deterministic shape.
func TestMetricsAndTraceEndToEnd(t *testing.T) {
	newStack := func(procs int) string {
		cat := catalog.New(4, 0)
		t.Cleanup(cat.Close)
		if err := cat.Register(catalog.Spec{Name: "rmat", Gen: "rmat:scale=7,ef=5,seed=21"}); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		mopts := []jobs.Option{jobs.WithMetrics(reg)}
		if procs > 0 {
			mopts = append(mopts, jobs.WithWorkerProcs(procs, os.Args[0]))
		}
		mgr := jobs.NewManager(cat, 2, mopts...)
		ts := httptest.NewServer(New(cat, mgr, WithRegistry(reg)).Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(mgr.Close)
		return ts.URL
	}
	inprocURL := newStack(0)
	distURL := newStack(2)

	req := jobs.Request{Algorithm: "wcc", Dataset: "rmat"}
	type outcome struct {
		url  string
		snap jobs.Snapshot
	}
	var wg sync.WaitGroup
	outcomes := make([]outcome, 4)
	// two concurrent jobs per fabric, with /metrics scraped while they
	// run — the scrape must never 500 or race (-race covers the latter)
	for i, base := range []string{inprocURL, inprocURL, distURL, distURL} {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			snap, status := postJob(t, base, req)
			if status != http.StatusAccepted {
				t.Errorf("submit: HTTP %d", status)
				return
			}
			for k := 0; k < 3; k++ {
				_ = getText(t, base+"/metrics")
				time.Sleep(time.Millisecond)
			}
			outcomes[i] = outcome{base, waitDone(t, base, snap.ID)}
		}(i, base)
	}
	wg.Wait()
	for _, o := range outcomes {
		if o.snap.State != jobs.StateDone {
			t.Fatalf("job %s on %s: state=%s err=%q", o.snap.ID, o.url, o.snap.State, o.snap.Error)
		}
	}

	// settled metrics: both stacks counted their two finished jobs
	for _, base := range []string{inprocURL, distURL} {
		body := getText(t, base+"/metrics")
		for _, want := range []string{
			"graphd_jobs_done_total 2",
			"# TYPE graphd_job_duration_seconds histogram",
			"graphd_job_duration_seconds_count 2",
			`graphd_jobs{state="done"} 2`,
			"graphd_catalog_loaded 1",
			"go_goroutines",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%s/metrics missing %q", base, want)
			}
		}
	}

	// trace parity: same deterministic timeline shape on both fabrics
	var inproc, dist tracePayloadT
	getJSON(t, outcomes[0].url+"/v1/jobs/"+outcomes[0].snap.ID+"/trace", http.StatusOK, &inproc)
	getJSON(t, outcomes[2].url+"/v1/jobs/"+outcomes[2].snap.ID+"/trace", http.StatusOK, &dist)
	if inproc.Workers == 0 || inproc.Workers != dist.Workers {
		t.Fatalf("workers: in-proc %d vs distributed %d", inproc.Workers, dist.Workers)
	}
	if len(inproc.Supersteps) == 0 || len(inproc.Supersteps) != len(dist.Supersteps) {
		t.Fatalf("supersteps: in-proc %d vs distributed %d",
			len(inproc.Supersteps), len(dist.Supersteps))
	}
	for si := range inproc.Supersteps {
		a, b := inproc.Supersteps[si], dist.Supersteps[si]
		if a.Superstep != b.Superstep || len(a.Workers) != len(b.Workers) {
			t.Fatalf("step %d: shape mismatch", si)
		}
		for wi := range a.Workers {
			x, y := a.Workers[wi], b.Workers[wi]
			if x.ActiveVertices != y.ActiveVertices || x.BytesSent != y.BytesSent ||
				x.FramesSent != y.FramesSent || x.Rounds != y.Rounds {
				t.Errorf("step %d worker %d: %+v vs %+v", si, wi, x, y)
			}
		}
	}

	// the distributed job's status carries per-worker wall times
	if m := outcomes[2].snap.Metrics; m == nil || len(m.WorkerWall) != dist.Workers {
		t.Fatalf("distributed job metrics missing WorkerWall: %+v", outcomes[2].snap.Metrics)
	}

	// unknown job: trace is a 404
	getJSON(t, inprocURL+"/v1/jobs/j-999999/trace", http.StatusNotFound, nil)

	// recovery instruments are always exported, even before any fault
	for _, want := range []string{"graphd_ckpt_recoveries_total", "graphd_job_retries_total"} {
		if body := getText(t, distURL+"/metrics"); !strings.Contains(body, want) {
			t.Errorf("distributed /metrics missing %q", want)
		}
	}

	// the worker pool is visible where there is one (its processes, their
	// memory, and the view loads the two jobs cost) and absent from the
	// in-process stack
	body := getText(t, distURL+"/metrics")
	for _, name := range []string{"graphd_worker_view_cache_hits_total", "graphd_worker_view_cache_misses_total",
		"graphd_worker_pool_processes", "graphd_worker_rss_bytes"} {
		if v, ok := metricValue(body, name); !ok || (v == 0 && name != "graphd_worker_view_cache_hits_total") {
			t.Errorf("distributed /metrics: %s = %v (present: %v), want a positive sample", name, v, ok)
		}
		if strings.Contains(getText(t, inprocURL+"/metrics"), name) {
			t.Errorf("in-process /metrics exports %s", name)
		}
	}
}

// metricValue reads an unlabelled sample from a Prometheus text page.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// End-to-end recovery observability: a worker process killed mid-job on
// a recovery-enabled stack must leave the job state=done and the
// recovery visible in /metrics as graphd_ckpt_recoveries_total.
func TestRecoveryCountedInMetrics(t *testing.T) {
	cat := catalog.New(4, 0)
	t.Cleanup(cat.Close)
	if err := cat.Register(catalog.Spec{Name: "rmat", Gen: "rmat:scale=7,ef=5,seed=21"}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var pids []int
	mgr := jobs.NewManager(cat, 2,
		jobs.WithMetrics(reg),
		jobs.WithWorkerProcs(4, os.Args[0]),
		jobs.WithRecovery(2, 1),
		jobs.WithSpawnHook(func(jobID string, p []int) {
			mu.Lock()
			if pids == nil {
				pids = append([]int(nil), p...)
			}
			mu.Unlock()
		}))
	ts := httptest.NewServer(New(cat, mgr, WithRegistry(reg)).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(mgr.Close)

	snap, status := postJob(t, ts.URL, jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat",
		Params: algorithms.Params{Iterations: 400}, MaxSupersteps: 200000,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		got := len(pids)
		mu.Unlock()
		if got > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	victims := pids
	mu.Unlock()
	if len(victims) == 0 {
		t.Fatal("spawn hook never fired")
	}
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(victims[1], syscall.SIGKILL); err != nil {
		t.Skipf("worker already gone: %v", err)
	}
	final := waitDone(t, ts.URL, snap.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q, want done via recovery", final.State, final.Error)
	}
	body := getText(t, ts.URL+"/metrics")
	if !strings.Contains(body, "graphd_ckpt_recoveries_total 1") {
		t.Fatalf("/metrics does not count the recovery:\n%s", grepLines(body, "recoveries"))
	}
	if !strings.Contains(body, `graphd_jobs{state="recovering"} 0`) {
		t.Errorf("/metrics missing the recovering-state gauge:\n%s", grepLines(body, "graphd_jobs{"))
	}
}

// grepLines returns the lines of s containing sub, for failure output.
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
