package workerproc_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/barrier"
	"repro/internal/graph"
	"repro/internal/netcomm"
	"repro/internal/partition"
	"repro/internal/seq"
	"repro/internal/workerproc"
	"repro/internal/workerproc/wptest"
)

// TestMain implements the graphworker re-exec — the pool spawns this
// test binary with GRAPHWORKER_CHILD set, so real multi-process jobs run
// without building a separate binary first — and opens wptest.Pool, the
// one warm pool every job below runs on: each lands on processes that
// already ran every earlier row, and none may be left at exit.
func TestMain(m *testing.M) { wptest.Main(m) }

// writeSnapshot dumps g with hash and greedy owner vectors for M
// workers embedded, returning the path and the partitions by name.
func writeSnapshot(t *testing.T, g *graph.Graph, m int) (string, map[string]*partition.Partition) {
	t.Helper()
	parts := map[string]*partition.Partition{}
	var placements []graph.Placement
	for _, name := range []string{partition.PlacementHash, partition.PlacementGreedy} {
		p, err := partition.ByName(name, g, m)
		if err != nil {
			t.Fatal(err)
		}
		parts[name] = p
		placements = append(placements, graph.Placement{Name: name, Workers: m, Owner: p.Owners()})
	}
	path := filepath.Join(t.TempDir(), "graph.bin")
	if err := graph.WriteSnapshotFile(path, g, placements); err != nil {
		t.Fatal(err)
	}
	return path, parts
}

// runJob executes one distributed job against this test binary.
func runJob(t *testing.T, snap string, placement string, part *partition.Partition,
	procs int, algorithm string, eng algorithms.Engine, variant string,
	params algorithms.Params) (*algorithms.Result, error) {
	t.Helper()
	return wptest.Pool.Run(workerproc.JobSpec{
		Bin:           os.Args[0],
		SnapshotPath:  snap,
		Placement:     placement,
		Part:          part,
		Procs:         procs,
		Algorithm:     algorithm,
		Engine:        eng,
		Variant:       variant,
		Params:        params,
		MaxSupersteps: 100000,
		JoinTimeout:   time.Minute,
	})
}

// TestDistributedEquivalenceSweep is the acceptance sweep: every Table
// IV–VII algorithm × both engines × every registered variant × hash and
// greedy placements, with the workers in separate OS processes joined
// over the socket fabric, must produce oracle-identical results. Two
// workers share each process, so the sweep also covers co-hosted
// workers whose frames stage in-process while their peers' cross the
// hub. Every row runs back to back on the same two warm processes, so
// it is also the state-leak sweep: nothing one algorithm, engine or
// placement leaves behind in a worker may change the next row's result.
func TestDistributedEquivalenceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns many worker processes")
	}
	const m, procs = 4, 2
	seed := int64(11)
	rmatD := graph.RMAT(7, 5, seed, graph.RMATOptions{NoSelfLoops: true})
	rmatU := graph.Undirectify(rmatD)
	rmatW := graph.Undirectify(graph.RMAT(6, 4, seed, graph.RMATOptions{Weighted: true, MaxWeight: 50, NoSelfLoops: true}))
	tree := graph.RandomTree(201, seed)

	inputs := map[string]*graph.Graph{
		"pagerank":    rmatD,
		"wcc":         rmatU,
		"sv":          rmatU,
		"scc":         rmatD,
		"pointerjump": tree,
		"sssp":        rmatW,
		"msf":         rmatW,
	}
	oracleWCC := seq.ConnectedComponents(rmatU)
	oracleSCC := seq.SCC(rmatD)
	oracleRoots := seq.TreeRoots(tree)
	oracleDist := seq.Dijkstra(rmatW, 1)
	oracleRank := seq.PageRank(rmatD, 12)
	oracleMSFW, oracleMSFCnt := seq.MSFWeight(rmatW)

	snaps := map[string]string{}
	parts := map[string]map[string]*partition.Partition{}
	for name, g := range inputs {
		snaps[name], parts[name] = writeSnapshot(t, g, m)
	}

	for _, spec := range algorithms.Registry() {
		for _, eng := range spec.Engines() {
			for _, variant := range spec.Variants(eng) {
				for _, placement := range []string{partition.PlacementHash, partition.PlacementGreedy} {
					sweepOne(t, snaps[spec.Name], placement, parts[spec.Name][placement],
						procs, spec, eng, variant,
						oracleWCC, oracleSCC, oracleRoots, oracleDist, oracleRank,
						oracleMSFW, oracleMSFCnt)
				}
			}
		}
	}
}

func sweepOne(t *testing.T, snap, placement string, part *partition.Partition,
	procs int, spec *algorithms.Spec, eng algorithms.Engine, variant string,
	oracleWCC, oracleSCC, oracleRoots []graph.VertexID, oracleDist []int64,
	oracleRank []float64, oracleMSFW int64, oracleMSFCnt int) {
	t.Helper()
	name := fmt.Sprintf("%s/%s/%s/%s", spec.Name, eng, variant, placement)
	params := algorithms.Params{Iterations: 12, Source: 1}
	res, err := runJob(t, snap, placement, part,
		procs, spec.Name, eng, variant, params)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	switch spec.Name {
	case "wcc", "sv":
		checkLabels(t, name, res.Labels, oracleWCC)
	case "scc":
		checkLabels(t, name, res.Labels, oracleSCC)
	case "pointerjump":
		checkLabels(t, name, res.Labels, oracleRoots)
	case "sssp":
		for i := range oracleDist {
			if res.Dists[i] != oracleDist[i] {
				t.Fatalf("%s: vertex %d got %d want %d", name, i, res.Dists[i], oracleDist[i])
			}
		}
	case "pagerank":
		for i := range oracleRank {
			if d := res.Ranks[i] - oracleRank[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%s: vertex %d got %v want %v", name, i, res.Ranks[i], oracleRank[i])
			}
		}
	case "msf":
		if res.MSF.Weight != oracleMSFW || len(res.MSF.Edges) != oracleMSFCnt {
			t.Fatalf("%s: weight=%d edges=%d want %d %d",
				name, res.MSF.Weight, len(res.MSF.Edges), oracleMSFW, oracleMSFCnt)
		}
	}
	if res.Metrics.Supersteps == 0 || res.Metrics.NetBytes == 0 {
		t.Fatalf("%s: empty metrics %+v", name, res.Metrics)
	}
}

func checkLabels(t *testing.T, name string, got, want []graph.VertexID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: vertex %d got %d want %d", name, i, got[i], want[i])
		}
	}
}

// Without recovery enabled (the default), a SIGKILLed worker still
// fails the job with a joined transport error — never hangs: the hub
// turns the dropped connection into a barrier abort that releases every
// other process, and the error carries netcomm.ErrWorkerLost.
func TestKillWorkerWithoutRecoveryFailsCleanly(t *testing.T) {
	g := graph.Undirectify(graph.RMAT(9, 6, 3, graph.RMATOptions{NoSelfLoops: true}))
	const m = 4
	snap, parts := writeSnapshot(t, g, m)
	res, err := wptest.Pool.Run(workerproc.JobSpec{
		Bin:           os.Args[0],
		SnapshotPath:  snap,
		Placement:     partition.PlacementHash,
		Part:          parts[partition.PlacementHash],
		Procs:         m,
		Algorithm:     "pagerank",
		Engine:        algorithms.EngineChannel,
		Params:        algorithms.Params{Iterations: 20},
		MaxSupersteps: 200000,
		JoinTimeout:   time.Minute,
		Fault:         &workerproc.FaultSpec{Kind: "kill", Worker: 1, Superstep: 4},
	})
	if err == nil {
		t.Fatalf("job succeeded despite killed worker (res=%v)", res != nil)
	}
	if !errors.Is(err, netcomm.ErrWorkerLost) && !strings.Contains(err.Error(), "exited") {
		t.Fatalf("error does not surface the dead worker: %v", err)
	}
}

// TestFaultMatrixRecovers is the recovery acceptance matrix: a
// deterministic kill, drop or stall of one worker mid-job, under either
// engine, must complete anyway — the coordinator replaces the lost
// member in its slot, re-runs the job on the same party from the last
// complete checkpoint, and the final ranks are byte-identical to an
// in-process run of the same engine. Every fault runs over both Unix
// sockets and loopback TCP. Row names keep their last segment, the data
// plane: every job rides the hub.
func TestFaultMatrixRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns many worker processes")
	}
	g := graph.Undirectify(graph.RMAT(8, 5, 3, graph.RMATOptions{NoSelfLoops: true}))
	const m = 4
	snap, parts := writeSnapshot(t, g, m)
	part := parts[partition.PlacementHash]
	params := algorithms.Params{Iterations: 12}
	spec, _ := algorithms.Lookup("pagerank")

	for _, eng := range []algorithms.Engine{algorithms.EngineChannel, algorithms.EnginePregel} {
		oracle, err := spec.Run(eng, "", g,
			algorithms.Options{Part: part, MaxSupersteps: 200000}, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ kind, network string }{
			{"kill", "unix"}, {"drop", "unix"}, {"stall", "unix"},
			{"kill", "tcp"}, {"drop", "tcp"}, {"stall", "tcp"},
		} {
			kind, network := tc.kind, tc.network
			t.Run(fmt.Sprintf("%s/%s/%s/hub", eng, kind, network), func(t *testing.T) {
				var recoveries atomic.Int32
				js := workerproc.JobSpec{
					Bin:           os.Args[0],
					SnapshotPath:  snap,
					Placement:     partition.PlacementHash,
					Part:          part,
					Procs:         m,
					Algorithm:     "pagerank",
					Engine:        eng,
					Network:       network,
					Params:        params,
					MaxSupersteps: 200000,
					JoinTimeout:   time.Minute,
					CkptDir:       t.TempDir(),
					CkptInterval:  2,
					CkptJob:       "t",
					MaxRecoveries: 2,
					RetryBackoff:  10 * time.Millisecond,
					Fault:         &workerproc.FaultSpec{Kind: kind, Worker: 2, Superstep: 5},
					OnRecovery: func(attempt, restoreStep int, joined bool) {
						recoveries.Add(1)
						if joined && restoreStep == 0 {
							t.Errorf("joined party recovered without any checkpoint")
						}
					},
				}
				if kind == "stall" {
					// the only detector a parked worker has; roomy enough
					// that the recovered attempt (one slot respawned and
					// reloading the view) never trips it on a loaded box
					js.WallTimeout = 3 * time.Second
				}
				res, err := wptest.Pool.Run(js)
				if err != nil {
					t.Fatalf("%s/%s: job did not recover: %v", eng, kind, err)
				}
				if recoveries.Load() == 0 {
					t.Fatalf("%s/%s: job succeeded without recovering (fault never fired?)", eng, kind)
				}
				if len(res.Ranks) != len(oracle.Ranks) {
					t.Fatalf("rank vector length %d want %d", len(res.Ranks), len(oracle.Ranks))
				}
				for i := range oracle.Ranks {
					if res.Ranks[i] != oracle.Ranks[i] {
						t.Fatalf("%s/%s: vertex %d got %v want %v (recovered run diverged)",
							eng, kind, i, res.Ranks[i], oracle.Ranks[i])
					}
				}
			})
		}
	}
}

// A worker error that would recur on every attempt — here the superstep
// cap — must fail fast even with recovery enabled: retrying cannot fix
// a deterministic failure, and each retry would burn a full attempt.
func TestRecoveryDoesNotRetryDeterministicErrors(t *testing.T) {
	g := graph.Undirectify(graph.RMAT(7, 4, 9, graph.RMATOptions{NoSelfLoops: true}))
	const m = 2
	snap, parts := writeSnapshot(t, g, m)
	retried := false
	_, err := wptest.Pool.Run(workerproc.JobSpec{
		Bin:           os.Args[0],
		SnapshotPath:  snap,
		Placement:     partition.PlacementHash,
		Part:          parts[partition.PlacementHash],
		Procs:         m,
		Algorithm:     "pagerank",
		Engine:        algorithms.EngineChannel,
		Params:        algorithms.Params{Iterations: 50},
		MaxSupersteps: 3,
		JoinTimeout:   time.Minute,
		CkptDir:       t.TempDir(),
		CkptInterval:  1,
		MaxRecoveries: 3,
		RetryBackoff:  10 * time.Millisecond,
		OnRecovery:    func(int, int, bool) { retried = true },
	})
	if err == nil {
		t.Fatal("expected MaxSupersteps error")
	}
	if retried {
		t.Fatalf("deterministic failure was retried: %v", err)
	}
}

// Cancellation mid-run propagates through the hub abort and surfaces as
// ErrCancelled.
func TestCancelDistributedJob(t *testing.T) {
	g := graph.Undirectify(graph.RMAT(8, 5, 5, graph.RMATOptions{NoSelfLoops: true}))
	const m = 2
	snap, parts := writeSnapshot(t, g, m)
	cancel := make(chan struct{})
	go func() {
		time.Sleep(500 * time.Millisecond)
		close(cancel)
	}()
	_, err := wptest.Pool.Run(workerproc.JobSpec{
		Bin:           os.Args[0],
		SnapshotPath:  snap,
		Placement:     partition.PlacementHash,
		Part:          parts[partition.PlacementHash],
		Procs:         m,
		Algorithm:     "pagerank",
		Engine:        algorithms.EngineChannel,
		Params:        algorithms.Params{Iterations: 100000},
		MaxSupersteps: 200000,
		JoinTimeout:   time.Minute,
		Cancel:        cancel,
	})
	if err == nil {
		t.Skip("job finished before the cancel landed")
	}
	if !errors.Is(err, barrier.ErrCancelled) {
		t.Fatalf("expected ErrCancelled, got %v", err)
	}
}

// A worker process that fails deterministically mid-run (superstep cap)
// must surface the real cause once, not per process.
func TestDistributedSuperstepCapSurfacesOnce(t *testing.T) {
	g := graph.Undirectify(graph.RMAT(7, 4, 9, graph.RMATOptions{NoSelfLoops: true}))
	const m = 2
	snap, parts := writeSnapshot(t, g, m)
	_, err := runJob(t, snap, partition.PlacementHash, parts[partition.PlacementHash],
		m, "pagerank", algorithms.EngineChannel, "", algorithms.Params{Iterations: 50})
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	res, err := wptest.Pool.Run(workerproc.JobSpec{
		Bin:           os.Args[0],
		SnapshotPath:  snap,
		Placement:     partition.PlacementHash,
		Part:          parts[partition.PlacementHash],
		Procs:         m,
		Algorithm:     "pagerank",
		Engine:        algorithms.EngineChannel,
		Params:        algorithms.Params{Iterations: 50},
		MaxSupersteps: 3,
		JoinTimeout:   time.Minute,
	})
	if err == nil {
		t.Fatalf("expected MaxSupersteps error, got result %v", res.Metrics)
	}
	if got := strings.Count(err.Error(), "MaxSupersteps"); got != 1 {
		t.Fatalf("cause appears %d times, want 1: %v", got, err)
	}
}

// A member that cannot load the view — so it never joins the job's
// fabric — must fail the job promptly with the load error, not sit out
// the join and result deadlines: the error travels in the member's
// result blob like a run error, and the abort it sends releases every
// other member. In the first row no member can read the export; in the
// second only one of two cannot: the other still holds the view from an
// earlier job, while the export is damaged before the respawned slot
// next to it reads it.
func TestWorkerDiesBeforeDialFailsFast(t *testing.T) {
	g := graph.Undirectify(graph.Chain(32))
	snap, parts := writeSnapshot(t, g, 2)
	var pids []int
	js := workerproc.JobSpec{
		Bin:          os.Args[0],
		SnapshotPath: snap,
		Placement:    partition.PlacementHash,
		Part:         parts[partition.PlacementHash],
		Procs:        2,
		Algorithm:    "wcc",
		Engine:       algorithms.EngineChannel,
		JoinTimeout:  time.Minute,
		Spawned:      func(p []int) { pids = p },
	}
	failsFast := func(t *testing.T, js workerproc.JobSpec) {
		t.Helper()
		start := time.Now()
		_, err := wptest.Pool.Run(js)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatal("job succeeded with an unreadable snapshot")
		}
		if !strings.Contains(err.Error(), "load snapshot") {
			t.Fatalf("error does not surface the snapshot failure: %v", err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("fast-fail took %v (ran out the deadlines instead of settling)", elapsed)
		}
	}
	t.Run("every member", func(t *testing.T) {
		missing := js
		missing.SnapshotPath = filepath.Join(t.TempDir(), "missing.bin")
		failsFast(t, missing)
	})
	t.Run("one of two members", func(t *testing.T) {
		if _, err := wptest.Pool.Run(js); err != nil {
			t.Fatalf("warm-up job: %v", err)
		}
		warm := pids
		if err := syscall.Kill(warm[1], syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		awaitGone(t, warm[1])
		if err := os.WriteFile(snap, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		failsFast(t, js)
		if pids[0] != warm[0] || pids[1] == warm[1] {
			t.Fatalf("party %v after losing member 1 of %v: want only that slot respawned", pids, warm)
		}
	})
}

// awaitGone waits until the pool has reaped a killed worker and dropped
// it from its books. The pid vanishing from the process table is too
// early: the pool marks the slot dead a log flush later, and a job that
// starts in between is handed the dead process instead of a respawn.
func awaitGone(t *testing.T, pid int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); slices.Contains(wptest.Pool.Processes(), pid); {
		if time.Now().After(deadline) {
			t.Fatalf("process %d still there", pid)
		}
		time.Sleep(time.Millisecond)
	}
}

// Jobs on a pool reuse its processes and what they loaded: the second
// job on a view execs nothing and every member finds the view resident.
func TestWarmPoolReusesProcessesAndViews(t *testing.T) {
	pool := wptest.Pool
	g := graph.Undirectify(graph.RMAT(7, 4, 5, graph.RMATOptions{NoSelfLoops: true}))
	snap, parts := writeSnapshot(t, g, 4)
	oracle := seq.ConnectedComponents(g)
	var runs [][]int
	js := workerproc.JobSpec{
		SnapshotPath: snap,
		Placement:    partition.PlacementGreedy,
		Part:         parts[partition.PlacementGreedy],
		Procs:        2,
		Algorithm:    "wcc",
		Engine:       algorithms.EngineChannel,
		Variant:      "propagation",
		Spawned:      func(p []int) { runs = append(runs, p) },
	}
	for i := 0; i < 3; i++ {
		before := pool.Stats()
		res, err := pool.Run(js)
		if err != nil {
			t.Fatal(err)
		}
		checkLabels(t, fmt.Sprintf("job %d", i), res.Labels, oracle)
		after := pool.Stats()
		hits, misses := after.ViewHits-before.ViewHits, after.ViewMisses-before.ViewMisses
		if want := int64(min(i, 1) * 2); hits != want || misses != 2-want {
			t.Fatalf("job %d: %d view hits, %d misses; want %d and %d", i, hits, misses, want, 2-want)
		}
		if after.Processes < 2 || after.RSSBytes == 0 {
			t.Fatalf("pool stats do not see the party: %+v", after)
		}
	}
	for _, pids := range runs[1:] {
		if pids[0] != runs[0][0] || pids[1] != runs[0][1] {
			t.Fatalf("jobs ran on different processes: %v", runs)
		}
	}
}

// The package-level Run is the one-shot form: a pool of its own around
// one job, every process cold, and none left when it returns.
func TestRunClosesItsPool(t *testing.T) {
	g := graph.Undirectify(graph.Chain(32))
	snap, parts := writeSnapshot(t, g, 2)
	var pids []int
	res, err := workerproc.Run(workerproc.JobSpec{
		Bin:          os.Args[0],
		SnapshotPath: snap,
		Placement:    partition.PlacementHash,
		Part:         parts[partition.PlacementHash],
		Procs:        2,
		Algorithm:    "wcc",
		Engine:       algorithms.EngineChannel,
		Spawned:      func(p []int) { pids = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, "one-shot", res.Labels, seq.ConnectedComponents(g))
	if len(pids) != 2 {
		t.Fatalf("party %v, want 2 processes", pids)
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("worker %d outlived Run: %v", pid, err)
		}
		for _, warm := range wptest.Pool.Processes() {
			if pid == warm {
				t.Errorf("Run borrowed worker %d of another pool", pid)
			}
		}
	}
}
