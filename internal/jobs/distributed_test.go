package jobs_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/catalog"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/live"
	"repro/internal/seq"
	"repro/internal/workerproc/wptest"
)

// TestMain implements the graphworker re-exec and opens wptest.Pool, the
// one warm worker pool of the whole binary: every manager below is
// handed it and borrows its parties, and no worker process may be left
// when the tests are done.
func TestMain(m *testing.M) { wptest.Main(m) }

func distributedManager(t *testing.T, procs int, hook func(jobID string, pids []int), extra ...jobs.Option) (*jobs.Manager, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New(4, 0)
	t.Cleanup(cat.Close)
	if err := cat.Register(catalog.Spec{Name: "rmat", Gen: "rmat:scale=7,ef=5,seed=21"}); err != nil {
		t.Fatal(err)
	}
	opts := []jobs.Option{jobs.WithWorkerProcs(procs, os.Args[0]), jobs.WithSharedPool(wptest.Pool)}
	if hook != nil {
		opts = append(opts, jobs.WithSpawnHook(hook))
	}
	opts = append(opts, extra...)
	mgr := jobs.NewManager(cat, 2, opts...)
	t.Cleanup(mgr.Close)
	return mgr, cat
}

func awaitTerminal(t *testing.T, mgr *jobs.Manager, id string, timeout time.Duration) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		snap, ok := mgr.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if snap.State.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, snap.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A job on the distributed path must complete with merged results and
// hub-sourced metrics, end to end through the manager.
func TestManagerDistributedJobCompletes(t *testing.T) {
	mgr, _ := distributedManager(t, 2, nil)
	snap, err := mgr.Submit(jobs.Request{Algorithm: "wcc", Dataset: "rmat"})
	if err != nil {
		t.Fatal(err)
	}
	final := awaitTerminal(t, mgr, snap.ID, time.Minute)
	if final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}
	if final.Metrics == nil || final.Metrics.NetBytes == 0 || final.Metrics.Supersteps == 0 {
		t.Fatalf("missing hub metrics: %+v", final.Metrics)
	}
	if final.Metrics.Placement == "" {
		t.Errorf("placement not stamped: %+v", final.Metrics)
	}
	res, err := mgr.Result(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) == 0 {
		t.Fatal("no merged labels")
	}
}

// Killing a graphworker mid-job no longer fails the job when recovery
// is enabled: the manager's coordinator respawns the party from the
// last checkpoint and the job lands in state=done with results
// identical to an undisturbed run.
func TestManagerKilledWorkerProcRecovers(t *testing.T) {
	var mu sync.Mutex
	pidsByJob := map[string][]int{}
	mgr, _ := distributedManager(t, 4, func(jobID string, pids []int) {
		mu.Lock()
		pidsByJob[jobID] = pids
		mu.Unlock()
	}, jobs.WithRecovery(2, 1))

	req := jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat",
		Params: algorithms.Params{Iterations: 400}, MaxSupersteps: 200000,
	}
	clean, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if s := awaitTerminal(t, mgr, clean.ID, time.Minute); s.State != jobs.StateDone {
		t.Fatalf("baseline: state=%s err=%q", s.State, s.Error)
	}
	want, err := mgr.Result(clean.ID)
	if err != nil {
		t.Fatal(err)
	}

	snap, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// wait for the spawn, then kill one worker process mid-superstep
	deadline := time.Now().Add(30 * time.Second)
	var pids []int
	for {
		mu.Lock()
		pids = pidsByJob[snap.ID]
		mu.Unlock()
		if len(pids) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(pids) == 0 {
		t.Fatal("spawn hook never fired")
	}
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(pids[2], syscall.SIGKILL); err != nil {
		t.Skipf("worker already gone: %v", err)
	}
	final := awaitTerminal(t, mgr, snap.ID, time.Minute)
	if final.State != jobs.StateDone {
		t.Fatalf("state=%s (err=%q), want done via recovery", final.State, final.Error)
	}
	got, err := mgr.Result(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Ranks {
		if got.Ranks[i] != want.Ranks[i] {
			t.Fatalf("vertex %d: recovered rank %v differs from clean %v", i, got.Ranks[i], want.Ranks[i])
		}
	}
}

// With recovery off (the default), the same kill still fails the job
// with the transport error joined in — the seed's fail-fast contract.
func TestManagerKilledWorkerProcFailsJobByDefault(t *testing.T) {
	var mu sync.Mutex
	pidsByJob := map[string][]int{}
	mgr, _ := distributedManager(t, 4, func(jobID string, pids []int) {
		mu.Lock()
		pidsByJob[jobID] = pids
		mu.Unlock()
	})
	snap, err := mgr.Submit(jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat",
		Params: algorithms.Params{Iterations: 100000}, MaxSupersteps: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var pids []int
	for {
		mu.Lock()
		pids = pidsByJob[snap.ID]
		mu.Unlock()
		if len(pids) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(pids) == 0 {
		t.Fatal("spawn hook never fired")
	}
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(pids[2], syscall.SIGKILL); err != nil {
		t.Skipf("worker already gone: %v", err)
	}
	final := awaitTerminal(t, mgr, snap.ID, time.Minute)
	if final.State != jobs.StateFailed {
		t.Fatalf("state=%s (err=%q), want failed", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "connection lost") && !strings.Contains(final.Error, "exited") {
		t.Fatalf("error does not surface the dead worker: %q", final.Error)
	}
}

// Cancelling a running distributed job propagates the abort to the
// worker processes and lands in state=cancelled.
func TestManagerCancelDistributedJob(t *testing.T) {
	mgr, _ := distributedManager(t, 2, nil)
	snap, err := mgr.Submit(jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat",
		Params: algorithms.Params{Iterations: 100000}, MaxSupersteps: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// wait until it runs, then cancel
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, _ := mgr.Get(snap.ID)
		if s.State == jobs.StateRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	if err := mgr.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := awaitTerminal(t, mgr, snap.ID, time.Minute)
	if final.State != jobs.StateCancelled && final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q, want cancelled (or done if the race lost)", final.State, final.Error)
	}
}

// exportFiles lists the view exports in the shared worker pool's
// directory.
func exportFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(wptest.Pool.Dir(), "view-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// A view is exported once, not per job, and the export lives as long as
// the view: when a live dataset is compacted between two distributed
// jobs, the second runs on the new epoch — oracle-identical, on the same
// warm workers — and the old epoch's export is gone the moment the epoch
// is freed.
func TestDistributedExportFollowsTheView(t *testing.T) {
	mgr, cat := distributedManager(t, 2, nil)
	if err := cat.Register(catalog.Spec{Name: "feed", Gen: "rmat:scale=7,ef=4,seed=3", Mutable: true}); err != nil {
		t.Fatal(err)
	}
	if files := exportFiles(t); len(files) != 0 {
		t.Fatalf("exports of earlier managers left behind: %v", files)
	}
	run := func(wantEpoch uint64) {
		t.Helper()
		snap, err := mgr.Submit(jobs.Request{Algorithm: "wcc", Dataset: "feed"})
		if err != nil {
			t.Fatal(err)
		}
		final := awaitTerminal(t, mgr, snap.ID, time.Minute)
		if final.State != jobs.StateDone {
			t.Fatalf("state=%s err=%q", final.State, final.Error)
		}
		if final.Metrics.Epoch != wantEpoch {
			t.Fatalf("ran on epoch %d, want %d", final.Metrics.Epoch, wantEpoch)
		}
		res, err := mgr.Result(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		entry, err := cat.Get("feed")
		if err != nil {
			t.Fatal(err)
		}
		want := seq.ConnectedComponents(graph.Undirectify(entry.CurrentGraph()))
		for v := range want {
			if res.Labels[v] != want[v] {
				t.Fatalf("epoch %d: vertex %d labelled %d, oracle says %d", wantEpoch, v, res.Labels[v], want[v])
			}
		}
	}

	run(1)
	run(1)
	first := exportFiles(t)
	if len(first) != 1 {
		t.Fatalf("two jobs on one view left %d exports, want 1: %v", len(first), first)
	}

	entry, err := cat.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	// join two components so the new epoch's answer differs from the old
	labels := seq.ConnectedComponents(graph.Undirectify(entry.CurrentGraph()))
	other := 0
	for v, l := range labels {
		if l != labels[0] {
			other = v
			break
		}
	}
	if other == 0 {
		t.Fatal("test graph is connected; pick another seed")
	}
	if err := entry.Live().Apply(live.Batch{Ops: []live.Op{{Src: 0, Dst: graph.VertexID(other)}}}); err != nil {
		t.Fatal(err)
	}
	entry.Live().CompactNow()
	if _, err := os.Stat(first[0]); !os.IsNotExist(err) {
		t.Fatalf("export of the freed epoch still there (stat: %v)", err)
	}

	run(2)
	second := exportFiles(t)
	if len(second) != 1 || second[0] == first[0] {
		t.Fatalf("exports after the new epoch's job: %v (old one was %v)", second, first)
	}
}

// Two jobs running at once on one manager get a party each: no worker
// process serves both.
func TestConcurrentDistributedJobsGetDisjointParties(t *testing.T) {
	var mu sync.Mutex
	parties := map[string][]int{}
	mgr, _ := distributedManager(t, 2, func(jobID string, pids []int) {
		mu.Lock()
		parties[jobID] = pids
		mu.Unlock()
	})
	long := jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat",
		Params: algorithms.Params{Iterations: 100000}, MaxSupersteps: 200000,
	}
	var ids []string
	for i := 0; i < 2; i++ {
		snap, err := mgr.Submit(long)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		n := len(parties)
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 jobs were dispatched", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// both are mid-run now (100000 iterations do not finish in the
	// meantime), each on its own processes
	seen := map[int]string{}
	mu.Lock()
	for id, pids := range parties {
		if len(pids) != 2 {
			t.Errorf("job %s runs on %d processes, want 2", id, len(pids))
		}
		for _, pid := range pids {
			if other, dup := seen[pid]; dup {
				t.Errorf("worker %d serves both %s and %s", pid, other, id)
			}
			seen[pid] = id
		}
	}
	mu.Unlock()
	for _, id := range ids {
		if err := mgr.Cancel(id); err != nil {
			t.Fatal(err)
		}
		if s := awaitTerminal(t, mgr, id, time.Minute); s.State != jobs.StateCancelled {
			t.Errorf("job %s: state=%s err=%q", id, s.State, s.Error)
		}
	}
}

// A manager owns its worker pool: Close reaps every worker process.
func TestManagerCloseReapsItsWorkers(t *testing.T) {
	cat := catalog.New(4, 0)
	defer cat.Close()
	if err := cat.Register(catalog.Spec{Name: "rmat", Gen: "rmat:scale=7,ef=5,seed=21"}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var party []int
	mgr := jobs.NewManager(cat, 2, jobs.WithWorkerProcs(2, os.Args[0]),
		jobs.WithSpawnHook(func(_ string, pids []int) {
			mu.Lock()
			party = pids
			mu.Unlock()
		}))
	snap, err := mgr.Submit(jobs.Request{Algorithm: "wcc", Dataset: "rmat"})
	if err != nil {
		t.Fatal(err)
	}
	if final := awaitTerminal(t, mgr, snap.ID, time.Minute); final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}
	mu.Lock()
	pids := party
	mu.Unlock()
	if len(pids) != 2 {
		t.Fatalf("party %v, want 2 processes", pids)
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err != nil {
			t.Fatalf("worker %d gone before Close: %v", pid, err)
		}
		for _, shared := range wptest.Pool.Processes() {
			if pid == shared {
				t.Fatalf("manager without a shared pool ran on worker %d of the shared one", pid)
			}
		}
	}
	mgr.Close()
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("worker %d outlived Close: %v", pid, err)
		}
	}
}

// Close removes the manager's exports, and the retirement hooks they
// left on the catalog's views are inert from then on: a view retired
// after Close does not reach into the pool's directory again.
func TestClosedManagersExportsStayGone(t *testing.T) {
	mgr, cat := distributedManager(t, 2, nil)
	snap, err := mgr.Submit(jobs.Request{Algorithm: "wcc", Dataset: "rmat"})
	if err != nil {
		t.Fatal(err)
	}
	if final := awaitTerminal(t, mgr, snap.ID, time.Minute); final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}
	files := exportFiles(t)
	if len(files) != 1 {
		t.Fatalf("exports after one job: %v", files)
	}
	mgr.Close()
	if left := exportFiles(t); len(left) != 0 {
		t.Fatalf("exports left by a closed manager: %v", left)
	}
	// something else now lives under the old name
	if err := os.WriteFile(files[0], []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(files[0])
	cat.Close() // retires the view
	if _, err := os.Stat(files[0]); err != nil {
		t.Fatalf("a view retired after Close removed %s: %v", files[0], err)
	}
}
