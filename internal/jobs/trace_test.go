package jobs_test

import (
	"os"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workerproc/wptest"
)

// runTraced submits one job and returns its report and final job
// snapshot.
func runTraced(t *testing.T, mgr *jobs.Manager, req jobs.Request) (*jobs.Report, jobs.Snapshot) {
	t.Helper()
	snap, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final := awaitTerminal(t, mgr, snap.ID, time.Minute)
	if final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}
	rep, err := mgr.Report(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.State.Terminal() {
		t.Fatalf("report state=%s, want terminal", rep.State)
	}
	return rep, final
}

// The same job must produce an identical-shape superstep timeline
// whether its workers are goroutines over shared memory or graphworker
// subprocesses over the socket fabric. Deterministic fields — active
// vertices, bytes, frames, rounds, channel breakdown — must match
// exactly; only the time attributions may differ.
func TestTraceShapeParityAcrossFabrics(t *testing.T) {
	req := jobs.Request{Algorithm: "wcc", Dataset: "rmat"}

	inprocMgr, cat := distributedManagerProcs(t, 0)
	inprocRep, _ := runTraced(t, inprocMgr, req)
	_ = cat

	distMgr, _ := distributedManagerProcs(t, 2)
	distRep, distFinal := runTraced(t, distMgr, req)

	if inprocRep.Workers != distRep.Workers {
		t.Fatalf("workers: in-proc %d vs distributed %d", inprocRep.Workers, distRep.Workers)
	}
	inproc, dist := inprocRep.Trace, distRep.Trace
	if len(inproc.Supersteps) == 0 || len(inproc.Supersteps) != len(dist.Supersteps) {
		t.Fatalf("supersteps: in-proc %d vs distributed %d",
			len(inproc.Supersteps), len(dist.Supersteps))
	}
	for si, a := range inproc.Supersteps {
		b := dist.Supersteps[si]
		if a.Superstep != b.Superstep || len(a.Workers) != len(b.Workers) {
			t.Fatalf("step %d: shape mismatch (%d/%d workers)", si, len(a.Workers), len(b.Workers))
		}
		for wi := range a.Workers {
			x, y := a.Workers[wi], b.Workers[wi]
			if x.Worker != y.Worker || x.Superstep != y.Superstep {
				t.Fatalf("step %d worker %d: identity mismatch %+v vs %+v", si, wi, x, y)
			}
			if x.ActiveVertices != y.ActiveVertices {
				t.Errorf("step %d worker %d: active %d vs %d", si, wi, x.ActiveVertices, y.ActiveVertices)
			}
			if x.BytesSent != y.BytesSent || x.FramesSent != y.FramesSent ||
				x.BytesRecv != y.BytesRecv || x.FramesRecv != y.FramesRecv {
				t.Errorf("step %d worker %d: traffic mismatch %+v vs %+v", si, wi, x, y)
			}
			if x.Rounds != y.Rounds {
				t.Errorf("step %d worker %d: rounds %d vs %d", si, wi, x.Rounds, y.Rounds)
			}
			if len(x.Channels) != len(y.Channels) {
				t.Fatalf("step %d worker %d: channels %d vs %d", si, wi, len(x.Channels), len(y.Channels))
			}
			for ci := range x.Channels {
				if x.Channels[ci] != y.Channels[ci] {
					t.Errorf("step %d worker %d channel %d: %+v vs %+v",
						si, wi, ci, x.Channels[ci], y.Channels[ci])
				}
			}
		}
	}

	// distributed jobs additionally record per-worker wall times
	if len(distFinal.Metrics.WorkerWall) != distRep.Workers {
		t.Fatalf("WorkerWall has %d entries, want %d", len(distFinal.Metrics.WorkerWall), distRep.Workers)
	}
	for w, d := range distFinal.Metrics.WorkerWall {
		if d <= 0 {
			t.Errorf("worker %d wall time %v, want > 0", w, d)
		}
		if d > distFinal.Metrics.WallTime {
			t.Errorf("worker %d wall %v exceeds job wall %v", w, d, distFinal.Metrics.WallTime)
		}
	}
}

// distributedManagerProcs builds a manager over the shared test dataset
// with procs graphworker subprocesses (0 = in-process fabric).
func distributedManagerProcs(t *testing.T, procs int) (*jobs.Manager, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New(4, 0)
	t.Cleanup(cat.Close)
	if err := cat.Register(catalog.Spec{Name: "rmat", Gen: "rmat:scale=7,ef=5,seed=21"}); err != nil {
		t.Fatal(err)
	}
	var opts []jobs.Option
	if procs > 0 {
		opts = append(opts, jobs.WithWorkerProcs(procs, os.Args[0]), jobs.WithSharedPool(wptest.Pool))
	}
	mgr := jobs.NewManager(cat, 2, opts...)
	t.Cleanup(mgr.Close)
	return mgr, cat
}

// HeapAllocDelta comes from the monotonic runtime/metrics allocation
// counter now, so it can never be negative.
func TestHeapAllocDeltaNonNegative(t *testing.T) {
	mgr, _ := distributedManagerProcs(t, 0)
	snap, err := mgr.Submit(jobs.Request{Algorithm: "wcc", Dataset: "rmat"})
	if err != nil {
		t.Fatal(err)
	}
	final := awaitTerminal(t, mgr, snap.ID, time.Minute)
	if final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}
	if final.Metrics.HeapAllocDelta < 0 {
		t.Fatalf("HeapAllocDelta=%d, want >= 0", final.Metrics.HeapAllocDelta)
	}
}

// Report on an unknown job is a clean error, and metrics registered via
// WithMetrics reflect finished jobs.
func TestManagerTraceAndMetrics(t *testing.T) {
	cat := catalog.New(4, 0)
	t.Cleanup(cat.Close)
	if err := cat.Register(catalog.Spec{Name: "rmat", Gen: "rmat:scale=6,ef=4,seed=3"}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mgr := jobs.NewManager(cat, 1, jobs.WithMetrics(reg))
	t.Cleanup(mgr.Close)

	if _, err := mgr.Report("j-999999"); err == nil {
		t.Fatal("Report on unknown job did not error")
	}

	snap, err := mgr.Submit(jobs.Request{Algorithm: "pointerjump", Dataset: "rmat"})
	if err != nil {
		t.Fatal(err)
	}
	final := awaitTerminal(t, mgr, snap.ID, time.Minute)
	if final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}
	done := reg.Counter("graphd_jobs_done_total", "")
	if done.Value() != 1 {
		t.Fatalf("graphd_jobs_done_total=%d, want 1", done.Value())
	}
	hist := reg.Histogram("graphd_job_duration_seconds", "", obs.DurationBuckets)
	if hist.Count() != 1 {
		t.Fatalf("duration histogram count=%d, want 1", hist.Count())
	}
}
