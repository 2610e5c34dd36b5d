// Command graphd serves graph-analytics jobs over HTTP: a long-lived
// daemon wrapping the channel engine and the Pregel baseline behind the
// /v1 JSON API (see internal/server), with a shared graph catalog so
// concurrent jobs against the same dataset load it once.
//
// Usage:
//
//	graphd [-addr :8372] [-workers 4] [-builtin test|bench|none]
//	       [-dataset name=spec ...] [-preload name,name]
//	       [-retain 256] [-queue 64] [-max-graph-bytes 0]
//	       [-compact-ops 65536] [-compact-batches 64]
//	       [-worker-procs 0] [-graphworker-bin path]
//	       [-join-timeout 0] [-result-timeout 0] [-wall-timeout 0]
//	       [-max-recoveries 0] [-ckpt-interval 0]
//	       [-pprof] [-log-level info]
//
// Observability: GET /metrics serves the daemon's counters in the
// Prometheus text format (including graphd_build_info and
// graphd_uptime_seconds), GET /v1/jobs/{id}/report serves a job's
// per-worker superstep timeline, per-(src,dst) flow matrix and
// automatic bottleneck diagnosis from one snapshot, GET
// /v1/jobs/{id}/events a live SSE stream of state transitions and
// completed supersteps, and -pprof mounts
// net/http/pprof under /debug/pprof/ for live CPU and heap profiles.
// Logs go to stderr as logfmt lines (-log-level debug|info|warn|error).
//
// With -worker-procs N every job runs its simulated cluster on a party
// of N warm graphworker processes joined over the socket fabric (Unix
// sockets) instead of goroutines over shared memory. The processes
// outlive jobs — parties are started on demand, one per concurrently
// running job (-workers bounds that), and reused — and so does what
// they load: the daemon exports each graph view plus owner vector once,
// as a binary snapshot that lives until the catalog frees the view, the
// workers rebuild identical partitions from it on first use and keep
// them, and partial results are merged back by vertex ownership.
// Shutdown closes the pool; the workers also exit on their own if the
// daemon dies. -graphworker-bin overrides the worker executable
// (default: the graphworker binary next to graphd).
//
// A dataset spec is either a file path (text edge list, or a binary
// snapshot written by graph.WriteBinary; "<path>.bin" siblings are
// preferred) or a generator expression such as
// "gen:rmat:scale=14,ef=10,seed=1" — see catalog.ParseGen. A "live:"
// prefix registers the dataset mutable: edge batches may be POSTed to
// /v1/datasets/{name}/edges and a background compactor folds them into
// new epochs once the delta log crosses the -compact-* thresholds.
// Examples:
//
//	graphd -dataset web=data/web.el -dataset road=gen:grid:rows=300,cols=300,maxw=1000 -preload web
//	graphd -dataset stream=live:gen:rmat:scale=12,ef=8,seed=9 -compact-ops 20000
//
// Submit a job, ingest edges:
//
//	curl -s localhost:8372/v1/jobs -d '{"algorithm":"pagerank","dataset":"web","engine":"channel"}'
//	curl -s localhost:8372/v1/datasets/feed/edges -d '7 12
//	- 3 4'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// builtinDatasets mirrors the harness stand-ins (Table III) as
// generator specs, so a bare `graphd` is immediately usable.
func builtinDatasets(scale string) []catalog.Spec {
	switch scale {
	case "test":
		return []catalog.Spec{
			{Name: "wiki", Gen: "rmat:scale=9,ef=6,seed=101"},
			{Name: "webuk", Gen: "rmat:scale=10,ef=8,seed=102"},
			{Name: "facebook", Gen: "social:scale=9,ef=2,seed=103"},
			{Name: "twitter", Gen: "social:scale=8,ef=12,seed=104"},
			{Name: "chain", Gen: "chain:n=2000"},
			{Name: "tree", Gen: "tree:n=2000,seed=105"},
			{Name: "road", Gen: "grid:rows=40,cols=40,maxw=1000,seed=106"},
			{Name: "rmatw", Gen: "rmat:scale=8,ef=8,seed=107,weighted,maxw=1000,undirected"},
			{Name: "feed", Gen: "rmat:scale=9,ef=4,seed=108", Mutable: true},
		}
	case "bench":
		return []catalog.Spec{
			{Name: "wiki", Gen: "rmat:scale=14,ef=10,seed=101"},
			{Name: "webuk", Gen: "rmat:scale=15,ef=16,seed=102"},
			{Name: "facebook", Gen: "social:scale=14,ef=2,seed=103"},
			{Name: "twitter", Gen: "social:scale=12,ef=24,seed=104"},
			{Name: "chain", Gen: "chain:n=200000"},
			{Name: "tree", Gen: "tree:n=200000,seed=105"},
			{Name: "road", Gen: "grid:rows=300,cols=300,maxw=1000,seed=106"},
			{Name: "rmatw", Gen: "rmat:scale=13,ef=8,seed=107,weighted,maxw=1000,undirected"},
			{Name: "feed", Gen: "rmat:scale=13,ef=6,seed=108", Mutable: true},
		}
	default:
		return nil
	}
}

// version is stamped at build time via
// -ldflags "-X main.version=v1.2.3"; it labels graphd_build_info.
var version = "dev"

func main() {
	addr := flag.String("addr", ":8372", "listen address")
	workers := flag.Int("workers", 4, "job pool size (concurrent jobs)")
	simWorkers := flag.Int("sim-workers", 8, "simulated cluster nodes per job (the paper uses 8)")
	builtin := flag.String("builtin", "test", "register built-in datasets: test, bench or none")
	retain := flag.Int("retain", 256, "finished jobs (and results) to retain")
	queueDepth := flag.Int("queue", 64, "pending job queue depth")
	maxGraphBytes := flag.Int64("max-graph-bytes", 0, "approximate catalog byte budget (0 = unlimited)")
	compactOps := flag.Int("compact-ops", 0, "live datasets: compact once this many delta ops are pending (0 = default 65536)")
	compactBatches := flag.Int("compact-batches", 0, "live datasets: compact once this many delta batches are pending (0 = default 64)")
	workerProcs := flag.Int("worker-procs", 0, "run each job's workers on a party of this many warm graphworker processes over the socket fabric (0 = in-process)")
	workerBin := flag.String("graphworker-bin", "", "graphworker executable for -worker-procs (default: sibling of graphd)")
	joinTimeout := flag.Duration("join-timeout", 0, "distributed jobs: worker join deadline (0 = 30s default)")
	resultTimeout := flag.Duration("result-timeout", 0, "distributed jobs: result settle deadline (0 = 30s default)")
	wallTimeout := flag.Duration("wall-timeout", 0, "distributed jobs: per-attempt wall-clock cap, the stalled-worker detector (0 = off)")
	maxRecoveries := flag.Int("max-recoveries", 0, "distributed jobs: recovery attempts after a worker dies mid-run (0 = fail fast)")
	ckptInterval := flag.Int("ckpt-interval", 0, "distributed jobs with -max-recoveries: supersteps between checkpoints (0 = every superstep)")
	preload := flag.String("preload", "", "comma-separated datasets to load at startup")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	var datasetFlags []string
	flag.Func("dataset", "register a dataset as name=path or name=gen:EXPR; a live: prefix makes it mutable (repeatable)", func(v string) error {
		datasetFlags = append(datasetFlags, v)
		return nil
	})
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "graphd: bad -log-level %q (want debug, info, warn or error)\n", *logLevel)
		os.Exit(1)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(log)
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	cat := catalog.New(*simWorkers, *maxGraphBytes,
		catalog.WithCompaction(*compactOps, *compactBatches))
	defer cat.Close()
	if *builtin != "none" {
		specs := builtinDatasets(*builtin)
		if specs == nil {
			fatal("unknown -builtin (want test, bench or none)", "builtin", *builtin)
		}
		for _, spec := range specs {
			if err := cat.Register(spec); err != nil {
				fatal("dataset registration failed", "err", err)
			}
		}
	}
	for _, df := range datasetFlags {
		name, val, ok := strings.Cut(df, "=")
		if !ok || name == "" || val == "" {
			fatal("bad -dataset (want name=path or name=gen:EXPR)", "dataset", df)
		}
		spec := catalog.Spec{Name: name}
		if rest, isLive := strings.CutPrefix(val, "live:"); isLive {
			spec.Mutable = true
			val = rest
		}
		if expr, isGen := strings.CutPrefix(val, "gen:"); isGen {
			spec.Gen = expr
		} else {
			spec.Path = val
		}
		if err := cat.Register(spec); err != nil {
			fatal("dataset registration failed", "err", err)
		}
	}

	reg := obs.NewRegistry()
	mgrOpts := []jobs.Option{jobs.WithRetention(*retain), jobs.WithQueueDepth(*queueDepth),
		jobs.WithLogger(log), jobs.WithMetrics(reg)}
	if *workerProcs > 0 {
		bin := *workerBin
		if bin == "" {
			self, err := os.Executable()
			if err != nil {
				fatal("-worker-procs needs -graphworker-bin", "err", err)
			}
			bin = filepath.Join(filepath.Dir(self), "graphworker")
		}
		if _, err := os.Stat(bin); err != nil {
			fatal("graphworker binary missing (build cmd/graphworker or pass -graphworker-bin)", "err", err)
		}
		mgrOpts = append(mgrOpts, jobs.WithWorkerProcs(*workerProcs, bin))
		log.Info("jobs run across graphworker processes", "procs", *workerProcs, "bin", bin)
	}
	if *joinTimeout > 0 {
		mgrOpts = append(mgrOpts, jobs.WithJoinTimeout(*joinTimeout))
	}
	if *resultTimeout > 0 {
		mgrOpts = append(mgrOpts, jobs.WithResultTimeout(*resultTimeout))
	}
	if *wallTimeout > 0 {
		mgrOpts = append(mgrOpts, jobs.WithWallTimeout(*wallTimeout))
	}
	if *maxRecoveries > 0 {
		mgrOpts = append(mgrOpts, jobs.WithRecovery(*maxRecoveries, *ckptInterval))
		log.Info("checkpoint recovery enabled", "max_recoveries", *maxRecoveries,
			"ckpt_interval", max(*ckptInterval, 1))
	}
	mgr := jobs.NewManager(cat, *workers, mgrOpts...)
	srv := server.New(cat, mgr, server.WithRegistry(reg), server.WithVersion(version))

	if *preload != "" {
		for _, name := range strings.Split(*preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			go func(name string) {
				t0 := time.Now()
				e, err := cat.Get(name)
				if err != nil {
					log.Warn("preload failed", "dataset", name, "err", err)
					return
				}
				g := e.CurrentGraph()
				log.Info("preloaded dataset", "dataset", name,
					"vertices", g.NumVertices(), "edges", g.NumEdges(),
					"took", time.Since(t0).Round(time.Millisecond))
			}(name)
		}
	}

	handler := srv.Handler()
	if *pprofOn {
		// mount the profile handlers explicitly so nothing is registered
		// unless asked for (the pprof import's DefaultServeMux routes are
		// unreachable — this mux never falls through to it)
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Info("profiling enabled", "path", "/debug/pprof/")
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Info("serving", "addr", *addr, "pool_workers", *workers, "sim_workers", *simWorkers)

	select {
	case <-ctx.Done():
		log.Info("shutting down")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("serve failed", "err", err)
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Warn("shutdown incomplete", "err", err)
	}
	mgr.Close() // drains the running jobs, then closes the worker pool: every graphworker is reaped
	st := mgr.Stats()
	fmt.Printf("graphd: done (ran %d jobs: %d done, %d failed, %d cancelled)\n",
		st.Submitted, st.Done, st.Failed, st.Cancelled)
}
