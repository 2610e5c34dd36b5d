package workerproc

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/barrier"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/netcomm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ser"
)

// JobSpec describes one distributed job: where the data lives and what
// to run on it.
type JobSpec struct {
	// Bin is the graphworker executable the package-level Run makes its
	// pool of; Pool.Run ignores it. The test binaries name themselves
	// and re-exec on ChildEnv.
	Bin string

	// Network is "unix" (default) or "tcp" (loopback).
	Network string

	// DataPlane may be "", "hub", "p2p" or "p2p-adaptive" (the
	// netcomm.DataPlane* names); every one of them relays frames through
	// the attempt's hub. Any other value fails the job before it is
	// dispatched.
	//
	// Deprecated: ROADMAP direction 4(d) deletes it.
	DataPlane string

	// SnapshotPath is a binary snapshot embedding the Placement owner
	// vector; Part must be the partition that vector describes (the
	// coordinator needs it to merge partials and the workers rebuild the
	// identical partition from the snapshot). Workers cache what they
	// load under this path until the file is gone, so within one pool a
	// path must name the same bytes for as long as it exists.
	SnapshotPath string
	Placement    string
	Part         *partition.Partition

	// Procs is the number of worker processes — the size of the party
	// the job borrows; the Part's workers are split into contiguous
	// ranges across them (capped at one worker per process).
	Procs int

	Algorithm string
	Engine    algorithms.Engine
	Variant   string
	Params    algorithms.Params

	MaxSupersteps int

	// Cancel, if non-nil, aborts the job when closed: the hub abort
	// propagates over every control connection, workers unwind and
	// return to idle; stragglers are killed after abortGrace. Run returns
	// barrier.ErrCancelled.
	Cancel <-chan struct{}

	// JoinTimeout bounds how long workers may take to connect
	// (default 30s).
	JoinTimeout time.Duration

	// ResultTimeout bounds how long the coordinator waits for result
	// blobs to settle after every worker returned to idle or died
	// (default 30s).
	ResultTimeout time.Duration

	// WallTimeout, when > 0, bounds one attempt's total wall clock: if
	// the job has not finished by then the hub aborts and stragglers are
	// killed after abortGrace. This is the only way a *stalled*
	// worker (alive, connected, parked forever) is ever detected — a
	// kill or a dropped connection surfaces through the hub on its own.
	WallTimeout time.Duration

	// CkptDir, when set, enables superstep checkpointing: every worker
	// process persists its per-worker record into a ckpt.Dir store
	// rooted here, every CkptInterval supersteps (default 1).
	CkptDir      string
	CkptInterval int
	// CkptJob keys the records inside the store (default "job").
	CkptJob string

	// MaxRecoveries is how many times Run re-dispatches the job after a
	// recoverable failure — a worker process dying, dropping its hub
	// connection, or (with WallTimeout) stalling — before giving up.
	// Each recovered attempt restores from the latest complete
	// checkpoint in CkptDir (or restarts from scratch when none exists).
	// 0 preserves the historical fail-fast behavior.
	MaxRecoveries int

	// RetryBackoff is the base delay between recovery attempts,
	// doubling per attempt with jitter, capped at 5s (default 100ms).
	RetryBackoff time.Duration

	// Fault, if set, is injected into the first attempt's workers
	// (deterministic failure for tests; recovered attempts run clean).
	Fault *FaultSpec

	// OnRecovery, if set, is called before each retry with the 1-based
	// attempt number, the checkpoint superstep the party will restore
	// from (0 = from scratch), and whether the failed attempt's party
	// had fully joined the hub (false means the failure was at
	// spawn/join time, not mid-run).
	OnRecovery func(attempt, restoreStep int, joined bool)

	// Spawned, if set, is called at the start of every attempt with the
	// party's worker process pids, once every slot is filled
	// (diagnostics; the failure tests use it to kill one).
	Spawned func(pids []int)

	// Trace, if non-nil, receives the job's superstep timeline, with the
	// shape an in-process run produces. Each worker process streams
	// every sample over its hub connection as its superstep completes,
	// riding the process's next write, so the trace (and anything
	// watching it via obs.Trace.OnStepComplete) advances while the job
	// is in flight. A process's last samples precede its result blob on
	// the same stream, so the trace is complete when Run returns.
	Trace *obs.Trace

	// Flows, if non-nil, receives the job's flow matrix: each worker
	// process accumulates its own rows at the fabric seam and ships them
	// piggybacked on its result blob; the coordinator merges them here,
	// plus the hub's relay stats. Only the
	// successful attempt contributes — an aborted attempt's partials
	// carry no flow section, so recovery never double-counts.
	Flows *obs.FlowAccum

	// Logger receives coordinator events and the workers' forwarded
	// stderr lines, each tagged with the emitting worker range. Nil
	// discards them.
	Logger *slog.Logger
}

// Run executes one job on a pool of its own, made of spec.Bin and
// closed on return: the one-shot form of Pool.Run, every process
// spawned cold.
func Run(spec JobSpec) (*algorithms.Result, error) {
	p, err := NewPool(spec.Bin)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Run(spec)
}

// Run executes a job across one of the pool's worker parties and
// returns the merged result; spec.Bin is ignored, the pool has its
// binary. The returned metrics carry the hub's job-wide communication
// stats; Supersteps is the minimum any worker process reported.
//
// With MaxRecoveries > 0, a recoverable failure — a worker process that
// died or lost its hub connection without reporting an algorithm error
// of its own — does not fail the job: Run tears the attempt down,
// consults the checkpoint store for the latest complete superstep, and
// dispatches the job to the same party again with that superstep to
// restore from — survivors re-join warm, only the slot of a member that
// died (or had to be killed) is respawned — up to MaxRecoveries times
// with capped exponential backoff. An error a worker *reported* (a real
// algorithm or configuration failure, an unreadable view export) is
// never retried, and cancellation always wins.
func (p *Pool) Run(spec JobSpec) (*algorithms.Result, error) {
	if spec.Part == nil {
		return nil, fmt.Errorf("workerproc: JobSpec.Part is required")
	}
	if spec.CkptDir != "" {
		if spec.CkptInterval <= 0 {
			spec.CkptInterval = 1
		}
		if spec.CkptJob == "" {
			spec.CkptJob = "job"
		}
	}
	base, err := spec.descriptor()
	if err != nil {
		return nil, err
	}
	log := spec.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	procs := spec.Procs
	if procs <= 0 || procs > base.m {
		procs = base.m
	}
	pt := p.acquire(procs)
	defer p.release(pt)
	for attempt := 0; ; attempt++ {
		d := base
		if attempt > 0 {
			d.fault = nil // injected faults hit the first attempt only
		}
		res, joined, recoverable, err := p.runAttempt(pt, spec, d, log)
		if err == nil || !recoverable || attempt >= spec.MaxRecoveries {
			return res, err
		}
		base.restore = 0
		if spec.CkptDir != "" {
			s, lerr := ckpt.NewDir(spec.CkptDir).LatestComplete(spec.CkptJob, base.m)
			if lerr != nil {
				log.Warn("checkpoint scan failed, restarting from scratch", "err", lerr)
			} else {
				base.restore = s
			}
		}
		log.Warn("recovering job", "attempt", attempt+1, "max", spec.MaxRecoveries,
			"restore_superstep", base.restore, "joined", joined, "cause", err)
		if spec.OnRecovery != nil {
			spec.OnRecovery(attempt+1, base.restore, joined)
		}
		if err := sleepBackoff(spec, attempt); err != nil {
			return nil, err
		}
	}
}

// descriptor renders the job-wide part of spec as the descriptor every
// member receives; the per-attempt fields (seq, hub address, worker
// range, restore) are filled at dispatch. A job the workers would
// refuse fails before anything is dispatched.
func (spec *JobSpec) descriptor() (descriptor, error) {
	switch spec.DataPlane {
	case "", "hub", "p2p", "p2p-adaptive":
	default:
		return descriptor{}, fmt.Errorf("workerproc: unknown data plane %q", spec.DataPlane)
	}
	d := descriptor{
		network:       cmp.Or(spec.Network, "unix"),
		snapshot:      spec.SnapshotPath,
		placement:     spec.Placement,
		m:             spec.Part.NumWorkers(),
		algorithm:     spec.Algorithm,
		engine:        cmp.Or(spec.Engine, algorithms.EngineChannel),
		variant:       spec.Variant,
		params:        spec.Params,
		maxSupersteps: spec.MaxSupersteps,
		trace:         spec.Trace != nil,
		flows:         spec.Flows != nil,
		ckptDir:       spec.CkptDir,
		ckptJob:       spec.CkptJob,
		ckptInterval:  spec.CkptInterval,
		fault:         spec.Fault,
	}
	return d, d.validate()
}

// abortGrace is how long a member gets to return to idle once its
// attempt was aborted (cancel, join or wall-clock watchdog) before it is
// killed. A healthy worker unwinds at its next barrier or send; one that
// does not — stalled, or deep in a long compute — costs only its slot's
// warm cache, never the job, so the grace is short.
const abortGrace = 2 * time.Second

// sleepBackoff waits out the capped exponential backoff before recovery
// attempt, honoring cancellation.
func sleepBackoff(spec JobSpec, attempt int) error {
	base := spec.RetryBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	delay := base << uint(attempt)
	if max := 5 * time.Second; delay > max || delay <= 0 {
		delay = max
	}
	delay += time.Duration(rand.Int63n(int64(delay)/2 + 1))
	select {
	case <-time.After(delay):
		return nil
	case <-spec.Cancel: // nil channel: never fires
		return barrier.ErrCancelled
	}
}

// listen opens the attempt's hub listener: a socket in the pool's
// directory, or a loopback port.
func (p *Pool) listen(network string) (net.Listener, string, error) {
	if network == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		return ln, ln.Addr().String(), nil
	}
	addr := filepath.Join(p.dir, fmt.Sprintf("hub-%d.sock", p.seq.Add(1)))
	ln, err := net.Listen("unix", addr) // Close unlinks the socket
	return ln, addr, err
}

// runAttempt runs one dispatch-execute-merge cycle on the party: a
// fresh hub, one descriptor per member, supersteps, partials, merge. It
// reports, along with the result, whether the party fully joined the
// hub and whether a failure is recoverable — i.e. worth another attempt.
// When it returns, every member is either idle again or dead.
func (p *Pool) runAttempt(pt *party, spec JobSpec, d descriptor, log *slog.Logger) (*algorithms.Result, bool, bool, error) {
	joinTimeout := cmp.Or(spec.JoinTimeout, 30*time.Second)
	resultTimeout := cmp.Or(spec.ResultTimeout, 30*time.Second)

	start := time.Now()
	ln, addr, err := p.listen(d.network)
	if err != nil {
		return nil, false, false, fmt.Errorf("workerproc: listen: %w", err)
	}
	d.addr = addr
	hub := netcomm.NewHub(d.m, comm.CostModel{}, ln)
	defer hub.Close()
	hub.SetLogger(log)
	if spec.Trace != nil {
		// the one sample path: record samples into the job trace as
		// workers ship them, so step-completion hooks fire mid-run (and
		// keep firing across recovery attempts)
		hub.OnSamples(func(p []byte) {
			if err := ser.Decode(func() { decodeSamples(ser.FromBytes(p), spec.Trace) }); err != nil {
				log.Warn("dropped a malformed live sample batch", "bytes", len(p), "err", err)
			}
		})
	}

	if err := pt.ensure(p); err != nil {
		// Spawn failures are often transient (fd or pid pressure):
		// recoverable, so the retry loop gets a shot at them.
		return nil, false, true, err
	}
	// this attempt's processes: a watchdog may outlive the attempt, and
	// by then the next one may be refilling the party's slots
	members := slices.Clone(pt.members)
	if spec.Spawned != nil {
		spec.Spawned(pt.pids())
	}

	// Dispatch, then one waiter per member: it ends when the member
	// acks (idle again) or its process is reaped. Either way a member
	// that will deliver no result aborts the hub at once, so nobody
	// sits out a join or result deadline for it.
	ranges := splitRanges(d.m, len(members))
	acks := make([]ack, len(members))
	idle := make([]atomic.Bool, len(members))
	var wg sync.WaitGroup
	for i, mb := range members {
		d.seq, d.lo, d.hi = p.seq.Add(1), ranges[i][0], ranges[i][1]
		workers := fmt.Sprintf("%d-%d", d.lo, d.hi)
		mb.stderr.begin(log.With("workers", workers))
		if err := writeFrame(mb.ctl, d.encode()); err != nil {
			mb.kill() // its control channel is broken: nothing else can reach it
		}
		wg.Add(1)
		go func(i int, mb *member, seq uint64) {
			defer wg.Done()
			for {
				select {
				case a := <-mb.acks:
					if a.seq != seq {
						continue
					}
					acks[i] = a
					idle[i].Store(true)
					if a.err != "" {
						hub.Abort("workers " + workers + ": graphworker did not report")
					}
				case <-mb.exited:
					hub.Abort("workers " + workers + ": graphworker exited")
				}
				return
			}
		}(i, mb, d.seq)
	}
	procsDone := make(chan struct{})
	// reap aborts the attempt and kills whatever has not returned to
	// idle within abortGrace — a stalled worker never will.
	reap := func(reason string) {
		hub.Abort(reason)
		select {
		case <-procsDone:
			return
		case <-time.After(abortGrace):
		}
		for i, mb := range members {
			select {
			case <-procsDone: // the attempt ended under the loop
				return
			default:
			}
			if !idle[i].Load() {
				mb.kill()
			}
		}
	}

	cancelFired := make(chan struct{})
	if spec.Cancel != nil {
		go func() {
			select {
			case <-spec.Cancel:
				close(cancelFired)
				reap("job cancelled")
			case <-procsDone:
			}
		}()
	}
	// Join watchdog: if the party never assembles, abort and kill so the
	// wait below cannot hang on a worker parked in a barrier.
	var joinedOK atomic.Bool
	go func() {
		if err := hub.WaitJoined(joinTimeout); err != nil {
			reap("join timeout")
		} else {
			joinedOK.Store(true)
		}
	}()
	// Wall-clock watchdog: a stalled worker stays joined and keeps its
	// connection, so neither the hub nor the join watchdog ever notices
	// it — only elapsed time can.
	if spec.WallTimeout > 0 {
		wallTimer := time.AfterFunc(spec.WallTimeout, func() { reap("wall-clock timeout") })
		defer wallTimer.Stop()
	}

	acked := make(chan struct{})
	go func() {
		wg.Wait()
		close(acked)
	}()
	// A member ships its result before it acks, so the results are
	// usually all in while the acks are still on their way: they are
	// merged meanwhile. Once every member is idle or dead instead, each
	// either shipped its result or made the hub abort, so this settles
	// as soon as the hub has read what is already in its socket buffers;
	// the deadline is only a backstop.
	select {
	case <-hub.ResultsIn():
	case <-acked:
	}
	blobs, hubErrs, werr := hub.WaitResults(resultTimeout)
	if werr != nil {
		hubErrs = append(hubErrs, werr)
	}

	var errs []error
	partials := make([]partial, 0, len(blobs))
	for _, blob := range blobs {
		pr, perr := decodePartial(blob)
		if perr != nil {
			errs = append(errs, perr)
			continue
		}
		partials = append(partials, pr)
	}
	res, mergeErr := mergePartials(spec.Part, partials, spec.Flows)
	<-acked
	close(procsDone)

	errs = append(errs, hubErrs...)
	for i, mb := range members {
		workers := fmt.Sprintf("%d-%d", ranges[i][0], ranges[i][1])
		switch a := acks[i]; {
		case !idle[i].Load():
			detail := ""
			if out := mb.stderr.retained(); out != "" {
				detail = ": " + out
			}
			errs = append(errs, fmt.Errorf("workerproc: graphworker %d (workers %s) exited: %v%s", i, workers, mb.exitErr, detail))
		case a.err != "":
			errs = append(errs, fmt.Errorf("workerproc: graphworker %d (workers %s) did not report: %s", i, workers, a.err))
		case a.cached:
			p.viewHits.Add(1)
		default:
			p.viewMisses.Add(1)
			log.Debug("worker view cache miss", "workers", workers,
				"placement", spec.Placement, "load_ms", float64(a.load)/1e6)
		}
	}

	if mergeErr != nil {
		errs = append(errs, mergeErr)
	}
	err = barrier.JoinErrors(errs)
	if err == nil && mergeErr != nil {
		// JoinErrors drops abort echoes to surface root causes, but a
		// failed merge with no root cause anywhere must still fail the
		// job — res is nil and the partials were incomplete.
		err = mergeErr
	}
	cancelled := false
	select {
	case <-cancelFired:
		cancelled = true
	default:
	}
	if cancelled {
		// A real worker error that raced the cancellation wins; but
		// teardown fallout (aborted echoes, processes killed or unwinding
		// before they could report) is a consequence of cancelling, not
		// a failure in its own right.
		var reported []error
		for _, pr := range partials {
			reported = append(reported, pr.err)
		}
		if realErr := barrier.JoinErrors(reported); realErr == nil {
			return nil, joinedOK.Load(), false, barrier.ErrCancelled
		}
	}
	if err != nil {
		// Recoverability: a failure is worth another attempt only when
		// no worker *reported* an error of its own — every partial that
		// arrived is either fine or pure abort fallout, so the root
		// cause is a process that died, dropped its connection
		// (netcomm.ErrWorkerLost) or was killed by a watchdog. An error
		// a worker shipped in its result blob (a superstep cap, a bad
		// restore, an unreadable export, an algorithm failure) would
		// just recur on retry.
		recoverable := !cancelled && !errors.Is(err, barrier.ErrCancelled)
		for _, pr := range partials {
			if pr.err != nil && !errors.Is(pr.err, barrier.ErrAborted) &&
				!errors.Is(pr.err, barrier.ErrCancelled) {
				recoverable = false
				break
			}
		}
		return nil, joinedOK.Load(), recoverable, err
	}
	if spec.Flows != nil {
		// relay stats live coordinator-side; merged only on the
		// successful attempt so recovery never double-counts
		for _, r := range hub.RelayStats() {
			spec.Flows.AddRelay(r)
		}
	}
	res.Metrics.Engine = d.engine
	res.Metrics.WallTime = time.Since(start)
	// Per-worker wall time as the coordinator saw it: job start to the
	// arrival of the result blob covering that worker. The spread across
	// workers is the job-level straggler skew.
	arrivals := hub.ResultTimes()
	wall := make([]time.Duration, d.m)
	for _, pr := range partials {
		at, ok := arrivals[pr.lo]
		if !ok {
			continue
		}
		for w := pr.lo; w <= pr.hi && w < d.m; w++ {
			wall[w] = at.Sub(start)
		}
	}
	res.Metrics.WorkerWall = wall
	log.Debug("job merged", "supersteps", res.Metrics.Supersteps,
		"net_bytes", res.Metrics.NetBytes, "rounds", res.Metrics.Rounds)
	return res, true, false, nil
}

// splitRanges deals m workers into n contiguous, near-equal ranges.
func splitRanges(m, n int) [][2]int {
	out := make([][2]int, 0, n)
	base, rem := m/n, m%n
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, [2]int{lo, lo + size - 1})
		lo += size
	}
	return out
}
