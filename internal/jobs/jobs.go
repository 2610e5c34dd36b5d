// Package jobs runs graph-analytics jobs against catalog datasets on a
// bounded worker pool. A job names an (algorithm, engine, variant)
// triple from the shared registry plus a dataset; the manager tracks it
// through pending → running → done/failed/cancelled and retains results
// for a bounded number of finished jobs. Queued jobs cancel
// immediately; running jobs cancel cooperatively through the engines'
// barrier-abort path. Jobs on live datasets pin the dataset's current
// epoch for the whole run — they always compute over one consistent
// snapshot, recorded in their metrics — and release it when done.
package jobs

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/barrier"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/workerproc"
)

// State is a job lifecycle state.
type State string

const (
	StatePending State = "pending"
	StateRunning State = "running"
	// StateRecovering marks a distributed job whose worker party died
	// mid-run and is being respawned from the latest complete
	// checkpoint. Non-terminal: the job returns to running once the new
	// party spawns, and to done/failed when it finishes for good.
	StateRecovering State = "recovering"
	StateDone       State = "done"
	StateFailed     State = "failed"
	StateCancelled  State = "cancelled"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Request is a job submission.
type Request struct {
	// Algorithm is a registry name or alias: pagerank, sssp, wcc,
	// pointerjump (alias cc), sv, scc, msf.
	Algorithm string `json:"algorithm"`
	// Engine is "channel" (default) or "pregel".
	Engine string `json:"engine,omitempty"`
	// Variant selects an optimization variant; "" means "basic".
	Variant string `json:"variant,omitempty"`
	// Dataset names a catalog entry.
	Dataset string `json:"dataset"`
	// Placement selects the vertex placement: "hash" or "greedy" (the
	// paper's "(P)" locality placement). Empty means the dataset spec's
	// default (hash when the spec has none).
	Placement string `json:"placement,omitempty"`
	// Params carries algorithm knobs (PageRank iterations, SSSP source).
	Params algorithms.Params `json:"params,omitzero"`
	// MaxSupersteps caps the run (0 = manager default of 200000).
	MaxSupersteps int `json:"max_supersteps,omitempty"`
}

// Snapshot is the externally visible view of a job.
type Snapshot struct {
	ID        string              `json:"id"`
	State     State               `json:"state"`
	Request   Request             `json:"request"`
	Submitted time.Time           `json:"submitted"`
	Started   time.Time           `json:"started,omitzero"`
	Finished  time.Time           `json:"finished,omitzero"`
	Error     string              `json:"error,omitempty"`
	Metrics   *algorithms.Metrics `json:"metrics,omitempty"`
}

type job struct {
	id        string
	req       Request
	eng       algorithms.Engine
	spec      *algorithms.Spec
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       string
	metrics   *algorithms.Metrics
	result    *algorithms.Result
	trace     *obs.Trace     // superstep timeline; set once the view is acquired
	flows     *obs.FlowAccum // per-(src,dst) flow matrix; set with the trace
	events    *eventLog      // live event stream; set at submission

	// cancel is closed (under the manager lock, at most once) to abort
	// the job while it runs; the engines unwind via barrier.Abort, and
	// execute checks it between its load/view/run phases.
	cancel    chan struct{}
	cancelled bool // cancel has been closed
}

// cancelRequested reports whether the job's cancellation has fired.
func (j *job) cancelRequested() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

func (j *job) snapshot() Snapshot {
	return Snapshot{ID: j.id, State: j.state, Request: j.req,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Error: j.err, Metrics: j.metrics}
}

// Stats summarizes manager activity.
type Stats struct {
	Workers    int   `json:"workers"`
	Pending    int   `json:"pending"`
	Running    int   `json:"running"`
	Recovering int   `json:"recovering"`
	Done       int   `json:"done"`
	Failed     int   `json:"failed"`
	Cancelled  int   `json:"cancelled"`
	Submitted  int64 `json:"submitted"`
	Evicted    int64 `json:"evicted"`
}

// Manager owns the worker pool and the job table. Safe for concurrent
// use.
type Manager struct {
	cat           *catalog.Catalog
	maxSupersteps int
	retain        int
	workers       int
	queueCap      int
	workerProcs   int    // > 0: run jobs across graphworker subprocesses
	workerBin     string // graphworker executable for the subprocess path
	pool          *workerproc.Pool
	poolErr       error // why pool is nil although workerProcs > 0
	poolBorrowed  bool  // the pool is a test binary's shared one: Close leaves it open
	exports       *viewExports
	joinTimeout   time.Duration
	resultTimeout time.Duration
	wallTimeout   time.Duration
	maxRecoveries int // > 0: checkpoint distributed jobs and recover from worker death
	ckptInterval  int
	fault         *workerproc.FaultSpec
	spawnHook     func(jobID string, pids []int)
	log           *slog.Logger
	met           *managerMetrics
	reg           *obs.Registry
	wg            sync.WaitGroup

	mu        sync.Mutex
	cond      *sync.Cond // signals workers that pending grew or closed flipped
	pending   []*job     // FIFO of queued jobs; cancelled jobs are removed
	jobs      map[string]*job
	order     []string // terminal job ids, oldest first, for retention
	seq       int64
	submitted int64
	evicted   int64
	closed    bool
}

// Option tweaks a Manager.
type Option func(*Manager)

// WithRetention bounds how many terminal jobs (and their results) are
// kept; older ones are forgotten. Default 256.
func WithRetention(n int) Option { return func(m *Manager) { m.retain = n } }

// WithQueueDepth sets the pending-queue capacity. Default 16x workers.
func WithQueueDepth(n int) Option { return func(m *Manager) { m.queueCap = n } }

// WithMaxSupersteps sets the default superstep cap for jobs that do not
// specify one. Default 200000.
func WithMaxSupersteps(n int) Option { return func(m *Manager) { m.maxSupersteps = n } }

// WithWorkerProcs makes every job run its simulated cluster as a party
// of n warm graphworker processes over the socket fabric instead of
// goroutines over shared memory. The manager owns a workerproc pool of
// bin until Close; parties are started on demand, one per concurrently
// running job, and kept between jobs. A view is
// exported once, as a binary snapshot (graph + owner vector) in the
// pool's directory that lives until the catalog retires the view; the
// workers load it on first use and keep it, so a repeat job ships no
// graph bytes, starts no process and builds nothing. n is capped at the
// catalog's worker count per job.
func WithWorkerProcs(n int, bin string) Option {
	return func(m *Manager) { m.workerProcs, m.workerBin = n, bin }
}

// WithJoinTimeout bounds how long a distributed job's worker processes
// may take to assemble on the hub (0 = the coordinator's 30s default).
func WithJoinTimeout(d time.Duration) Option {
	return func(m *Manager) { m.joinTimeout = d }
}

// WithResultTimeout bounds how long a distributed job's coordinator
// waits for result blobs to settle after every worker process exited
// (0 = the coordinator's 30s default).
func WithResultTimeout(d time.Duration) Option {
	return func(m *Manager) { m.resultTimeout = d }
}

// WithWallTimeout bounds each distributed attempt's total wall clock;
// exceeding it aborts the attempt (and, with recovery enabled, triggers
// a recovery cycle). This is the only detector for a *stalled* worker.
// 0 disables the watchdog.
func WithWallTimeout(d time.Duration) Option {
	return func(m *Manager) { m.wallTimeout = d }
}

// WithRecovery makes distributed jobs survive worker death: every
// worker checkpoints its state each ckptInterval supersteps (<= 0
// defaults to 1) into a per-job store, and when a worker process dies
// mid-run the manager replaces it in its slot and re-runs the job on
// the same party up to maxRecoveries times, restoring from the latest
// complete checkpoint. 0 preserves the historical fail-fast behavior.
func WithRecovery(maxRecoveries, ckptInterval int) Option {
	return func(m *Manager) { m.maxRecoveries, m.ckptInterval = maxRecoveries, ckptInterval }
}

// WithFault injects a deterministic fault into the first attempt of
// every distributed job (tests and chaos drills only; recovered
// attempts run clean).
func WithFault(f *workerproc.FaultSpec) Option {
	return func(m *Manager) { m.fault = f }
}

// WithSpawnHook installs a callback invoked at the start of each
// distributed attempt with the pids of the job's worker party
// (diagnostics; tests use it to kill a worker).
func WithSpawnHook(f func(jobID string, pids []int)) Option {
	return func(m *Manager) { m.spawnHook = f }
}

// WithLogger directs the manager's job lifecycle events — and, for
// distributed jobs, the coordinator's forwarded graphworker stderr —
// to l, each tagged with the job id and dataset. Default: discard.
func WithLogger(l *slog.Logger) Option {
	return func(m *Manager) {
		if l != nil {
			m.log = l
		}
	}
}

// WithMetrics registers the manager's aggregate job counters on reg:
// graphd_job_duration_seconds, graphd_jobs_finished_total (by state),
// graphd_job_supersteps_total, graphd_job_net_bytes_total, the
// graphd_superstep_seconds histogram, and the diagnosis summary
// counters (graphd_diagnosis_findings_total,
// graphd_diagnosis_unhealthy_jobs_total). With WithWorkerProcs it also
// exposes the worker pool, read on scrape:
// graphd_worker_view_cache_hits_total and _misses_total (per worker
// process per job: was the job's view already resident),
// graphd_worker_pool_processes and graphd_worker_rss_bytes.
func WithMetrics(reg *obs.Registry) Option {
	return func(m *Manager) {
		if reg == nil {
			return
		}
		m.reg = reg
		m.met = &managerMetrics{
			duration: reg.Histogram("graphd_job_duration_seconds",
				"Wall time of finished jobs (running, not queued).", obs.DurationBuckets),
			done: reg.Counter("graphd_jobs_done_total",
				"Jobs that finished successfully."),
			failed: reg.Counter("graphd_jobs_failed_total",
				"Jobs that finished in error."),
			cancelled: reg.Counter("graphd_jobs_cancelled_total",
				"Jobs cancelled while queued or running."),
			supersteps: reg.Counter("graphd_job_supersteps_total",
				"Supersteps executed by successful jobs."),
			netBytes: reg.Counter("graphd_job_net_bytes_total",
				"Cross-worker bytes moved by successful jobs."),
			recoveries: reg.Counter("graphd_ckpt_recoveries_total",
				"Checkpoint recovery cycles: a joined worker party lost a member and re-ran from the latest complete checkpoint."),
			retries: reg.Counter("graphd_job_retries_total",
				"Retries for failures before the worker party assembled (spawn or join errors)."),
			stepSeconds: reg.Histogram("graphd_superstep_seconds",
				"Per-superstep wall time (slowest worker's compute + barrier wait), fed live from the superstep trace.", obs.DurationBuckets),
			findings: reg.Counter("graphd_diagnosis_findings_total",
				"Bottleneck findings (warn or critical) across the diagnoses of finished jobs."),
			unhealthy: reg.Counter("graphd_diagnosis_unhealthy_jobs_total",
				"Finished jobs whose automatic diagnosis reached warn severity or worse."),
		}
	}
}

// managerMetrics are the registry instruments the manager updates as
// jobs reach terminal states.
type managerMetrics struct {
	duration    *obs.Histogram
	done        *obs.Counter
	failed      *obs.Counter
	cancelled   *obs.Counter
	supersteps  *obs.Counter
	netBytes    *obs.Counter
	recoveries  *obs.Counter
	retries     *obs.Counter
	stepSeconds *obs.Histogram
	findings    *obs.Counter
	unhealthy   *obs.Counter
}

// diagnosis folds one finished job's bottleneck report into the
// aggregate instruments.
func (mm *managerMetrics) diagnosis(rep *obs.Report) {
	if mm == nil || rep == nil {
		return
	}
	var n int64
	for _, f := range rep.Findings {
		if f.Severity != "info" {
			n++
		}
	}
	mm.findings.Add(n)
	if !rep.Healthy {
		mm.unhealthy.Inc()
	}
}

// step records one completed superstep's wall time.
func (mm *managerMetrics) step(ev obs.StepEvent) {
	if mm == nil {
		return
	}
	mm.stepSeconds.Observe(float64(ev.WallNS) / 1e9)
}

// recovery records one respawn cycle: a lost party that had joined is a
// checkpoint recovery, one that never assembled is a spawn/join retry.
func (mm *managerMetrics) recovery(joined bool) {
	if mm == nil {
		return
	}
	if joined {
		mm.recoveries.Inc()
	} else {
		mm.retries.Inc()
	}
}

// observe records one terminal job.
func (mm *managerMetrics) observe(j *job) {
	if mm == nil {
		return
	}
	if !j.started.IsZero() {
		mm.duration.Observe(j.finished.Sub(j.started).Seconds())
	}
	switch j.state {
	case StateDone:
		mm.done.Inc()
		if j.metrics != nil {
			mm.supersteps.Add(int64(j.metrics.Supersteps))
			mm.netBytes.Add(j.metrics.NetBytes)
		}
	case StateFailed:
		mm.failed.Inc()
	case StateCancelled:
		mm.cancelled.Inc()
	}
}

// NewManager starts a manager with the given number of pool workers.
func NewManager(cat *catalog.Catalog, workers int, opts ...Option) *Manager {
	if workers <= 0 {
		workers = 4
	}
	m := &Manager{
		cat:           cat,
		workers:       workers,
		retain:        256,
		maxSupersteps: 200000,
		jobs:          make(map[string]*job),
		log:           slog.New(slog.DiscardHandler),
	}
	for _, o := range opts {
		o(m)
	}
	if m.queueCap <= 0 {
		m.queueCap = 16 * workers
	}
	if m.workerProcs > 0 {
		if m.pool == nil {
			m.pool, m.poolErr = workerproc.NewPool(m.workerBin)
		}
		if m.poolErr != nil {
			m.log.Error("worker pool unavailable; distributed jobs will fail", "err", m.poolErr)
		} else {
			m.exports = newViewExports(m.pool.Dir(), m.log)
			if m.reg != nil {
				m.reg.OnScrape(m.emitPoolMetrics)
			}
		}
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.workerLoop()
	}
	return m
}

// Submit validates and enqueues a job, returning its snapshot.
func (m *Manager) Submit(req Request) (Snapshot, error) {
	spec, ok := algorithms.Lookup(req.Algorithm)
	if !ok {
		return Snapshot{}, fmt.Errorf("jobs: unknown algorithm %q", req.Algorithm)
	}
	eng, err := algorithms.ParseEngine(req.Engine)
	if err != nil {
		return Snapshot{}, err
	}
	if err := spec.CheckVariant(eng, req.Variant); err != nil {
		return Snapshot{}, err
	}
	if !m.cat.Has(req.Dataset) {
		return Snapshot{}, fmt.Errorf("jobs: unknown dataset %q", req.Dataset)
	}
	switch req.Placement {
	case "", partition.PlacementHash, partition.PlacementGreedy:
	default:
		return Snapshot{}, fmt.Errorf("jobs: unknown placement %q (want %s or %s)",
			req.Placement, partition.PlacementHash, partition.PlacementGreedy)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, fmt.Errorf("jobs: manager is shut down")
	}
	if len(m.pending) >= m.queueCap {
		return Snapshot{}, fmt.Errorf("jobs: queue full (%d pending)", m.queueCap)
	}
	m.seq++
	m.submitted++
	j := &job{
		id:        fmt.Sprintf("j-%06d", m.seq),
		req:       req,
		eng:       eng,
		spec:      spec,
		state:     StatePending,
		submitted: time.Now(),
		cancel:    make(chan struct{}),
		events:    newEventLog(),
	}
	m.jobs[j.id] = j
	m.pending = append(m.pending, j)
	m.cond.Signal()
	j.events.publish(stateEvent(StatePending, ""))
	return j.snapshot(), nil
}

// workerLoop pulls pending jobs until the manager is closed and the
// queue is drained.
func (m *Manager) workerLoop() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pending) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		j.state = StateRunning
		j.started = time.Now()
		m.mu.Unlock()
		j.events.publish(stateEvent(StateRunning, ""))
		m.log.Info("job started", "job", j.id,
			"algorithm", j.req.Algorithm, "dataset", j.req.Dataset)

		res, err := m.execute(j)

		m.mu.Lock()
		j.finished = time.Now()
		switch {
		case err != nil && errors.Is(err, barrier.ErrCancelled):
			j.state = StateCancelled
			j.err = "cancelled while running"
		case err != nil:
			j.state = StateFailed
			j.err = err.Error()
		default:
			j.state = StateDone
			j.result = res
			j.metrics = &res.Metrics
		}
		m.met.observe(j)
		m.retireLocked(j)
		state, jerr, took := j.state, j.err, j.finished.Sub(j.started)
		m.mu.Unlock()
		j.events.publish(stateEvent(state, jerr))
		j.events.close()
		if state == StateDone {
			// summarize the finished job's diagnosis into the aggregate
			// instruments, and put the top finding into the log so "why
			// was this slow" has an answer without anyone fetching the
			// job's report
			rep := reportOf(j.id, state, j.trace, j.flows, j.metrics).Diagnosis
			m.met.diagnosis(rep)
			if !rep.Healthy && len(rep.Findings) > 0 {
				m.log.Warn("job diagnosis found bottlenecks", "job", j.id,
					"findings", len(rep.Findings), "top", rep.Findings[0].Detail)
			}
			m.log.Info("job finished", "job", j.id, "state", state, "took", took)
		} else {
			m.log.Warn("job finished", "job", j.id, "state", state,
				"took", took, "err", jerr)
		}
		m.mu.Lock()
	}
}

// execute resolves the dataset's (placement, orientation) view and
// dispatches through the registry; every job runs on the view's
// pre-resolved fragments. Live datasets are pinned to one epoch for the
// whole run, released when it finishes, and the epoch is recorded in
// the job's metrics.
func (m *Manager) execute(j *job) (*algorithms.Result, error) {
	entry, err := m.cat.Get(j.req.Dataset)
	if err != nil {
		return nil, err
	}
	if j.cancelRequested() {
		// honor a cancel that landed during a long dataset load, before
		// paying for view construction
		return nil, barrier.ErrCancelled
	}
	placement := j.req.Placement
	if placement == "" {
		placement = entry.Spec.Placement
	}
	view, release, epoch, err := entry.AcquireView(placement, j.spec.NeedsUndirected)
	if err != nil {
		return nil, err
	}
	defer release()
	if j.cancelRequested() {
		return nil, barrier.ErrCancelled
	}
	g := view.Graph
	if j.spec.NeedsWeights && !g.Weighted() {
		return nil, fmt.Errorf("jobs: %s needs edge weights but dataset %q is unweighted",
			j.spec.Name, j.req.Dataset)
	}
	if j.spec.HasSource && int(j.req.Params.Source) >= g.NumVertices() {
		return nil, fmt.Errorf("jobs: source vertex %d out of range (%d vertices)",
			j.req.Params.Source, g.NumVertices())
	}
	maxSteps := j.req.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = m.maxSupersteps
	}
	// Every job collects a superstep trace and a flow matrix; both
	// collectors are retained on the job record so the telemetry stays
	// queryable after the run.
	tr := obs.NewTrace(view.Part.NumWorkers())
	flows := obs.NewFlowAccum(view.Part.NumWorkers())
	// Completed supersteps go out on the job's live event stream (and
	// into the superstep-duration histogram) the moment every worker's
	// sample lands — in-process immediately, distributed when the
	// workers' streamed samples reach the coordinator.
	tr.OnStepComplete(func(ev obs.StepEvent) {
		j.events.publish(obs.JobEvent{Type: "superstep",
			State: string(StateRunning), Step: &ev})
		m.met.step(ev)
	})
	tr.OnTruncate(func(dropped int64) {
		m.log.Warn("superstep trace ring truncated; older samples dropped",
			"job", j.id, "truncated_samples", dropped)
	})
	m.mu.Lock()
	j.trace = tr
	j.flows = flows
	m.mu.Unlock()
	var res *algorithms.Result
	if m.workerProcs > 0 {
		res, err = m.executeDistributed(j, view, epoch, maxSteps)
		if err != nil {
			return nil, err
		}
	} else {
		flows.SetPlane("inproc")
		opts := algorithms.Options{Part: view.Part, Frags: view.Frags,
			MaxSupersteps: maxSteps, Cancel: j.cancel, Observer: tr, Flows: flows}
		before := heapAllocBytes()
		res, err = j.spec.Run(j.eng, j.req.Variant, g, opts, j.req.Params)
		if err != nil {
			return nil, err
		}
		res.Metrics.HeapAllocDelta = int64(heapAllocBytes() - before)
	}
	res.Metrics.Placement = view.Placement
	res.Metrics.EdgeCut = view.EdgeCut
	res.Metrics.Epoch = epoch
	return res, nil
}

// emitPoolMetrics is the scrape hook for the worker pool's series.
func (m *Manager) emitPoolMetrics(e *obs.Emitter) {
	st := m.pool.Stats()
	e.Counter("graphd_worker_view_cache_hits_total",
		"Worker-process job starts that found the job's graph view already resident.", float64(st.ViewHits))
	e.Counter("graphd_worker_view_cache_misses_total",
		"Worker-process job starts that had to load the view export and build partition and fragments.", float64(st.ViewMisses))
	e.Gauge("graphd_worker_pool_processes",
		"Live graphworker processes in the warm pool.", float64(st.Processes))
	e.Gauge("graphd_worker_rss_bytes",
		"Sum of the pool's graphworker resident set sizes.", float64(st.RSSBytes))
}

// executeDistributed runs the job on a party of the warm worker pool:
// the view's export (written on the view's first distributed job) names
// the graph for the workers, and the socket-fabric coordinator merges
// their partial results.
func (m *Manager) executeDistributed(j *job, view *catalog.View, epoch uint64, maxSteps int) (*algorithms.Result, error) {
	if m.pool == nil {
		return nil, fmt.Errorf("jobs: worker pool unavailable: %w", m.poolErr)
	}
	snap, release, err := m.exports.acquire(view)
	if err != nil {
		return nil, err
	}
	defer release()
	spec := workerproc.JobSpec{
		SnapshotPath:  snap,
		Placement:     view.Placement,
		Part:          view.Part,
		Procs:         m.workerProcs,
		Algorithm:     j.spec.Name,
		Engine:        j.eng,
		Variant:       j.req.Variant,
		Params:        j.req.Params,
		MaxSupersteps: maxSteps,
		Cancel:        j.cancel,
		JoinTimeout:   m.joinTimeout,
		ResultTimeout: m.resultTimeout,
		WallTimeout:   m.wallTimeout,
		Trace:         j.trace,
		Flows:         j.flows,
		Fault:         m.fault,
		Logger:        m.log.With("job", j.id, "dataset", j.req.Dataset, "epoch", epoch),
	}
	if m.maxRecoveries > 0 {
		// Checkpoints share the job's lifetime: a directory of their own
		// next to the exports, gone when the job is.
		dir, err := os.MkdirTemp(m.pool.Dir(), "ckpt-")
		if err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		defer os.RemoveAll(dir)
		spec.CkptDir = dir
		spec.CkptInterval = m.ckptInterval
		spec.CkptJob = j.id
		spec.MaxRecoveries = m.maxRecoveries
		spec.OnRecovery = func(attempt, restoreStep int, joined bool) {
			m.met.recovery(joined)
			m.mu.Lock()
			flipped := j.state == StateRunning
			if flipped {
				j.state = StateRecovering
			}
			m.mu.Unlock()
			if flipped {
				j.events.publish(stateEvent(StateRecovering, ""))
			}
		}
	}
	spec.Spawned = func(pids []int) {
		m.mu.Lock()
		flipped := j.state == StateRecovering
		if flipped {
			j.state = StateRunning
		}
		m.mu.Unlock()
		if flipped {
			j.events.publish(stateEvent(StateRunning, ""))
		}
		if m.spawnHook != nil {
			m.spawnHook(j.id, pids)
		}
	}
	return m.pool.Run(spec)
}

// heapAllocBytes reads the runtime's cumulative heap-allocation counter
// (/gc/heap/allocs:bytes). The counter is monotonic, so deltas across a
// run measure bytes allocated rather than live-heap movement and are
// immune to GC timing; they remain process-wide, so concurrent jobs in
// the same process inflate each other's readings.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// retireLocked records a terminal job and evicts the oldest terminal
// jobs beyond the retention bound.
func (m *Manager) retireLocked(j *job) {
	m.order = append(m.order, j.id)
	for m.retain > 0 && len(m.order) > m.retain {
		evict := m.order[0]
		m.order = m.order[1:]
		delete(m.jobs, evict)
		m.evicted++
	}
}

// Get returns the snapshot of a job.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// Report is one job's telemetry in one view: the superstep timeline,
// the flow matrix, and the bottleneck diagnosis of that same timeline
// and matrix. The sections of a running job's report cover one live
// prefix, so they agree with each other.
type Report struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Workers is the job's worker count; 0 until its view is acquired.
	Workers   int             `json:"workers"`
	Trace     TraceSection    `json:"trace"`
	Flows     *obs.FlowMatrix `json:"flows"`
	Diagnosis *obs.Report     `json:"diagnosis"`
}

// TraceSection is the report's superstep timeline: one entry per
// superstep with one sample per worker, the same shape whichever fabric
// ran the job. TruncatedSamples counts samples the bounded ring dropped;
// it is always present so a truncated timeline cannot pass for a
// complete one, and Warning spells it out when nonzero.
type TraceSection struct {
	TruncatedSamples int64           `json:"truncated_samples"`
	Warning          string          `json:"warning,omitempty"`
	Supersteps       []obs.TraceStep `json:"supersteps"`
}

// Report returns what the job's telemetry recorded so far. A running
// job reports its live prefix; a queued job (or one that failed before
// its view was acquired) reports empty sections.
func (m *Manager) Report(id string) (*Report, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: unknown or expired job %q", id)
	}
	tr, flows, met, state := j.trace, j.flows, j.metrics, j.state
	m.mu.Unlock()
	return reportOf(id, state, tr, flows, met), nil
}

// reportOf snapshots a job's collectors once and diagnoses those same
// snapshots; any of the inputs may be nil.
func reportOf(id string, state State, tr *obs.Trace, flows *obs.FlowAccum, met *algorithms.Metrics) *Report {
	rep := &Report{ID: id, State: state, Flows: &obs.FlowMatrix{}}
	var snap *obs.TraceSnapshot
	if tr != nil {
		snap = tr.Snapshot()
		rep.Workers = snap.Workers
		rep.Trace.TruncatedSamples = snap.TruncatedSamples
		rep.Trace.Supersteps = snap.Supersteps
		if snap.TruncatedSamples > 0 {
			rep.Trace.Warning = fmt.Sprintf("trace ring truncated: %d samples beyond the %d-step window were dropped; the timeline below is incomplete",
				snap.TruncatedSamples, obs.DefaultTraceSteps)
		}
	}
	var fm *obs.FlowMatrix
	if flows != nil {
		fm = flows.Matrix()
		rep.Flows = fm
	}
	var rm obs.RunMetrics
	if met != nil {
		rm = obs.RunMetrics{Supersteps: met.Supersteps, NetBytes: met.NetBytes, EdgeCut: met.EdgeCut}
	}
	rep.Diagnosis = obs.Diagnose(snap, fm, rm)
	if rep.Trace.Supersteps == nil {
		rep.Trace.Supersteps = []obs.TraceStep{}
	}
	if rep.Flows.Flows == nil {
		rep.Flows.Flows = []obs.FlowStat{}
	}
	return rep
}

// Events subscribes to a job's live event stream: replay holds every
// retained event so far, live delivers subsequent ones and closes when
// the job reaches a terminal state (immediately for a finished job).
// cancel detaches the subscription; callers must invoke it when done.
func (m *Manager) Events(id string) (replay []obs.JobEvent, live <-chan obs.JobEvent, cancel func(), err error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, nil, fmt.Errorf("jobs: unknown or expired job %q", id)
	}
	replay, live, cancel = j.events.subscribe()
	return replay, live, cancel, nil
}

// Result returns the result of a finished job.
func (m *Manager) Result(id string) (*algorithms.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("jobs: unknown or expired job %q", id)
	}
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		return nil, fmt.Errorf("jobs: job %s failed: %s", id, j.err)
	case StateCancelled:
		return nil, fmt.Errorf("jobs: job %s was cancelled", id)
	default:
		return nil, fmt.Errorf("jobs: job %s is %s", id, j.state)
	}
}

// Cancel cancels a job. A queued job is removed immediately; a running
// job is aborted cooperatively (the engines unwind through
// barrier.Abort at their next synchronization point), so its state
// flips to cancelled shortly after — a run that manages to finish in
// the same instant may still complete. Cancelling twice is an error the
// second time only if the job already reached a terminal state.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: unknown or expired job %q", id)
	}
	switch j.state {
	case StatePending:
		// remove from the queue so the slot frees up immediately
		for i, q := range m.pending {
			if q == j {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		j.state = StateCancelled
		j.finished = time.Now()
		m.retireLocked(j)
		j.events.publish(stateEvent(StateCancelled, ""))
		j.events.close()
		return nil
	case StateRunning, StateRecovering:
		if !j.cancelled {
			j.cancelled = true
			close(j.cancel)
		}
		return nil
	default:
		return fmt.Errorf("jobs: job %s is already %s", id, j.state)
	}
}

// List returns snapshots of all retained jobs, oldest submission first.
func (m *Manager) List() []Snapshot {
	out, _ := m.ListPage("", 0, 0)
	return out
}

// ListPage returns a window of retained jobs, oldest submission first:
// jobs whose state matches the filter ("" matches all), skipping offset
// matches and returning at most limit (0 = no limit). total is the
// match count before windowing, so clients can page.
func (m *Manager) ListPage(state State, offset, limit int) (out []Snapshot, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	matched := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		if state != "" && j.state != state {
			continue
		}
		matched = append(matched, j.snapshot())
	}
	// ids are zero-padded sequence numbers, so lexical order is
	// submission order
	sort.Slice(matched, func(i, k int) bool { return matched[i].ID < matched[k].ID })
	total = len(matched)
	if offset > total {
		offset = total
	}
	matched = matched[offset:]
	if limit > 0 && limit < len(matched) {
		matched = matched[:limit]
	}
	return matched, total
}

// ParseState validates a state filter string ("" is allowed and matches
// every state).
func ParseState(s string) (State, error) {
	switch State(s) {
	case "", StatePending, StateRunning, StateRecovering, StateDone, StateFailed, StateCancelled:
		return State(s), nil
	}
	return "", fmt.Errorf("jobs: unknown state %q", s)
}

// Stats returns a snapshot of manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{Workers: m.workers, Submitted: m.submitted, Evicted: m.evicted}
	for _, j := range m.jobs {
		switch j.state {
		case StatePending:
			st.Pending++
		case StateRunning:
			st.Running++
		case StateRecovering:
			st.Recovering++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Close stops accepting submissions, drains queued jobs, waits for the
// job pool to exit, and then closes the worker pool: the view exports
// are removed and every graphworker exits and is reaped.
func (m *Manager) Close() {
	m.mu.Lock()
	first := !m.closed
	if first {
		m.closed = true
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	m.wg.Wait()
	if !first || m.pool == nil {
		return
	}
	m.exports.close() // no job is left to hold one
	if !m.poolBorrowed {
		m.pool.Close()
	}
}
