// Package bsp is the superstep driver both engines run on: the paper's
// Fig. 4 loop, written once. A job runs M workers (goroutines standing
// in for cluster nodes), each owning a disjoint set of vertices. Every
// superstep the driver runs the engine's compute phase over the active
// vertices, then one or more buffer-exchange rounds — serialize to every
// worker, flush, cross the barrier, decode every source, cross the
// reducing barrier — until no worker asks for another round, and ends
// the job when no vertex is active anywhere or a worker requested a
// stop. What an engine puts in a round, and whether it wants another, is
// the engine's business (Program); the channel engine and the Pregel
// baseline differ only there, so their communication is what Tables
// IV–VII compare.
//
// The driver is also the one place a job's traffic is counted: just
// before each round's Flush, every worker totals its outgoing buffers
// into network and loopback bytes, one exchange round and that round's
// off-worker volume, and feeds Env.Flows the (src, dst) cells. Run adds
// up its workers' counts and charges the modeled network time
// (comm.RoundTime) with each round's busiest worker. A fabric only moves
// the bytes, so the figures do not depend on which one carried them.
//
// Env.Observer is the telemetry seam: when set, every worker emits one
// obs.SuperstepSample per superstep — compute time, barrier-wait time
// (on the socket fabric it includes the process's one write per
// crossing), active vertices, exchange rounds, and bytes counted at the
// driver's own serialize and deserialize points, so the sample stream is
// identical whichever comm.Fabric carried the bytes. Engines add their
// frame counts (and the channel engine its per-channel breakdown)
// through Core.Sample. A nil observer keeps the loop free of collection
// work beyond a per-phase branch.
//
// Env.Checkpoint is the fault-tolerance seam: when active, each worker
// cuts a ckpt.Record after round 1 of a due superstep has serialized,
// before that round's flush — core state, the algorithm's Save closure,
// the engine's own state and the M outgoing buffers the round just
// wrote, which are every message compute staged — and persists it
// there. Round 1's barrier crossing is then every worker's proof that
// all peers' records are durable, so a checkpoint costs no crossing of
// its own. Restore applies the record, writes the saved buffers back
// into the fabric and enters the same exchange loop at round 1's flush,
// making a resumed run bit-identical to an undisturbed one.
package bsp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/barrier"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ser"
)

// Env is the run environment of a job, whichever engine runs it.
type Env struct {
	Part *partition.Partition
	// Frags, if set, gives every worker a shared-nothing pre-resolved
	// fragment (Worker.Frag) so neighbor iteration and sends never
	// consult the global graph or partition. When Part is nil it is
	// taken from Frags.
	Frags *frag.Fragments
	// Fabric is the transport the workers exchange buffers and
	// synchronize through. Nil selects the in-process zero-copy fabric
	// over all Part.NumWorkers() workers. A distributed fabric
	// (internal/netcomm) may host only a subset of the workers in this
	// process: Run then executes exactly the fabric's local workers and
	// relies on the fabric's barrier to synchronize with the rest of the
	// party in other processes.
	Fabric comm.Fabric
	// MaxSupersteps aborts runaway jobs; 0 means 10_000.
	MaxSupersteps int
	// MaxRoundsPerStep aborts a superstep whose workers never stop asking
	// for another exchange round; 0 means 1_000_000.
	MaxRoundsPerStep int
	// Cancel, if non-nil, aborts the run when closed: the shared barrier
	// is released, workers unwind, and Run returns barrier.ErrCancelled
	// (unless a worker failed for a real reason first, which wins).
	Cancel <-chan struct{}
	// Observer, if non-nil, receives one obs.SuperstepSample per
	// (worker, superstep). Nil disables all collection.
	Observer obs.Observer
	// Flows, if non-nil, receives one Record per non-empty (src, dst)
	// buffer a local worker flushes: this process's rows of the job's
	// flow matrix. Nil costs one branch per destination.
	Flows *obs.FlowAccum
	// Checkpoint, if non-nil with a store, snapshots every worker's state
	// at the barrier-aligned cut every Interval supersteps and, on
	// Restore > 0, resumes from the saved superstep instead of starting
	// fresh. The algorithm must register Save/Restore closures via
	// Worker.Checkpoint.
	Checkpoint *ckpt.Hook
}

// Metrics summarizes a finished run: the traffic of the local workers,
// counted at their flushes, and the job's wall time.
type Metrics struct {
	Supersteps int
	// NetBytes counts bytes sent between distinct workers; LocalBytes
	// the loopback bytes (worker to itself). The paper's "message (GB)"
	// columns count network traffic.
	NetBytes, LocalBytes int64
	// Rounds counts buffer-exchange rounds (≥ 1 per superstep).
	Rounds int64
	// Model is the modeled network time of the paper's cluster: Σ over
	// rounds of comm.RoundTime(the busiest worker's off-worker bytes).
	// Exact when this process hosts every worker; zero otherwise, since
	// a round's busiest worker may live elsewhere.
	Model    time.Duration
	WallTime time.Duration
}

// Program is one worker's engine: the part of a superstep that differs
// between the channel engine and the Pregel baseline. The driver calls
// each method once per phase, never per vertex. Engines implement it on
// a type embedding their Worker, which embeds Core.
type Program interface {
	core() *Core
	// Setup allocates the engine's per-worker state and runs the
	// algorithm's setup function; it reports what setup left missing
	// or inconsistent.
	Setup() error
	// Initialize runs after every worker finished Setup, and superstep
	// 1 follows it without a crossing: what it prepares is the
	// worker's own, and nothing passes between workers before round
	// 1's flush.
	Initialize()
	// Compute runs the compute phase over the active vertices and the
	// engine's after-compute hook.
	Compute()
	// Serialize appends this round's data for worker dst (the worker
	// itself included) to buf; Deserialize consumes the round's buffer
	// from src, rejecting bytes it cannot account for.
	Serialize(dst int, buf *ser.Buffer)
	Deserialize(src int, in *ser.Buffer) error
	// Decoding names what Deserialize was decoding when it panicked on
	// hostile bytes, or nil.
	Decoding() any
	// Again ends a round: it reports whether this worker wants another.
	Again() bool
	// SaveState adds the engine's own state to a checkpoint cut, made
	// after round 1's Serialize; RestoreState checks a record against
	// the engine's shape and applies that state before the restored
	// superstep flushes round 1.
	SaveState(rec *ckpt.Record)
	RestoreState(rec *ckpt.Record) error
}

// job is what one Run's local workers share. All cross-worker
// communication goes through the fabric and its barrier.
type job struct {
	env  Env
	name string // the engine, prefixing every error
	bar  barrier.Barrier
}

// errAborted is what a worker returns when it stopped because a peer
// aborted the shared barrier; JoinErrors filters it out so only root
// causes surface.
var errAborted = barrier.ErrAborted

// Run executes a job with one Program per local worker of the fabric,
// made by newProgram; name prefixes the run's errors. Run returns when
// no vertex is active on any worker, when a worker calls RequestStop, or
// when MaxSupersteps is hit (reported as an error). With a distributed
// fabric hosting a subset of the workers, Run executes that subset and
// its Metrics cover that subset.
func Run(env Env, name string, newProgram func() Program) (Metrics, error) {
	if env.Part == nil && env.Frags != nil {
		env.Part = env.Frags.Part
	}
	if env.Part == nil {
		return Metrics{}, fmt.Errorf("%s: Config.Part or Config.Frags is required", name)
	}
	if env.Frags != nil && env.Frags.Part != env.Part {
		// packed addresses resolved under a different partition would
		// silently deliver messages to the wrong vertices
		return Metrics{}, fmt.Errorf("%s: Config.Frags was built from a different partition than Config.Part", name)
	}
	m := env.Part.NumWorkers()
	fab := env.Fabric
	if fab == nil {
		fab = comm.NewInProc(m)
	}
	if fab.NumWorkers() != m {
		return Metrics{}, fmt.Errorf("%s: fabric has %d workers, partition has %d", name, fab.NumWorkers(), m)
	}
	j := &job{env: env, name: name, bar: fab.Barrier()}
	locals := fab.LocalWorkers()
	workers := make([]*Core, len(locals))
	for i, id := range locals {
		p := newProgram()
		c := p.core()
		*c = Core{id: id, part: env.Part, ep: fab.Endpoint(id), job: j, prog: p, current: -1}
		if env.Frags != nil {
			c.frag = env.Frags.Frag(id)
		}
		workers[i] = c
	}

	start := time.Now()
	cancelled := barrier.WatchCancel(env.Cancel, j.bar)
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, c := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.run()
		}()
	}
	wg.Wait()

	// Report the minimum superstep any local worker reached: when a
	// worker fails, the supersteps its peers were mid-way through never
	// completed their exchanges, so the minimum is the only count that
	// was globally finished.
	minStep := workers[0].superstep
	for _, c := range workers[1:] {
		minStep = min(minStep, c.superstep)
	}
	met := Metrics{Supersteps: minStep, WallTime: time.Since(start)}
	met.total(workers, len(workers) == m)
	err := barrier.JoinErrors(errs)
	if cancelled() && err == nil {
		// all workers unwound through the aborted barrier (their abort
		// echoes were filtered): the cancellation is the root cause
		err = barrier.ErrCancelled
	} else if err == nil && j.bar.Aborted() {
		// every local error was an abort echo: the root cause lives in
		// another process. Surface the abort instead of claiming success;
		// the coordinator filters it against the real error.
		err = errAborted
	}
	return met, err
}

// total adds up the workers' traffic. A round is counted once every
// worker flushed it; with model set, each such round is charged its
// busiest worker's volume.
func (met *Metrics) total(workers []*Core, model bool) {
	rounds := len(workers[0].roundNet)
	for _, c := range workers {
		met.NetBytes += c.netBytes
		met.LocalBytes += c.localBytes
		rounds = min(rounds, len(c.roundNet))
	}
	met.Rounds = int64(rounds)
	for r := 0; model && r < rounds; r++ {
		var busiest int64
		for _, c := range workers {
			busiest = max(busiest, c.roundNet[r])
		}
		met.Model += comm.RoundTime(busiest)
	}
}

// run executes the worker loop; a worker that fails aborts the shared
// barrier so its peers return (with errAborted) instead of deadlocking
// on a synchronization point the failed worker will never reach.
func (c *Core) run() error {
	err := c.supersteps()
	if err != nil && !errors.Is(err, errAborted) {
		c.job.bar.Abort()
	}
	return err
}

// errorf prefixes a worker error with the engine's name and the
// worker's id.
func (c *Core) errorf(format string, args ...any) error {
	return fmt.Errorf("%s: worker %d: "+format, append([]any{c.job.name, c.id}, args...)...)
}

func (c *Core) supersteps() error {
	j, p := c.job, c.prog
	if err := p.Setup(); err != nil {
		return c.errorf("%w", err)
	}
	ck := j.env.Checkpoint
	if ck.Active() && (c.ckptSave == nil || c.ckptRestore == nil) {
		return c.errorf("Config.Checkpoint is set but setup registered no Checkpoint closures")
	}
	// All vertices start active (paper Fig. 4 line 3).
	c.active = make([]bool, c.LocalCount())
	for i := range c.active {
		c.active[i] = true
	}
	c.activeCount = len(c.active)
	if !j.bar.Wait() { // every worker finished setup
		return errAborted
	}
	p.Initialize()
	// A fresh job goes on to superstep 1; a restoring one first finishes
	// its record's superstep, whose last round votes like any other. The
	// restored superstep is not a sample of this run.
	vote := barrier.Vote(false, true, false)
	if ck.Active() && ck.Restore > 0 {
		if err := c.restore(ck); err != nil {
			return c.errorf("restore checkpoint %d: %w", ck.Restore, err)
		}
		var err error
		if vote, err = c.rounds(); err != nil {
			return err
		}
	}
	c.obsOn = j.env.Observer != nil
	maxSteps := j.env.MaxSupersteps
	if maxSteps == 0 {
		maxSteps = 10000
	}

	for !barrier.Terminated(vote) {
		c.superstep++
		if c.superstep > maxSteps {
			return fmt.Errorf("%s: exceeded MaxSupersteps=%d", j.name, maxSteps)
		}
		var stepStart time.Time
		if c.obsOn {
			c.smp = obs.SuperstepSample{Worker: c.id, Superstep: c.superstep,
				ActiveVertices: int64(c.activeCount)}
			stepStart = time.Now()
		}
		p.Compute()
		if c.obsOn {
			c.smp.ComputeNS = time.Since(stepStart).Nanoseconds()
		}
		// the deterministic fault-injection point, checkpointing or not
		ck.FireProbe(c.id, c.superstep)

		// Exchange (paper Fig. 4 lines 6-14): round 1 always runs. A due
		// checkpoint is cut once it has serialized, before anything is
		// flushed — the previous crossing aligned every worker at the end
		// of the same compute phase — so round 1's first crossing comes
		// after every worker's Put.
		c.round = 1
		c.serialize()
		if ck.ShouldSave(c.superstep) {
			if err := c.save(ck); err != nil {
				return c.errorf("checkpoint superstep %d: %w", c.superstep, err)
			}
			ck.AfterSave(c.superstep)
		}
		var err error
		if vote, err = c.rounds(); err != nil {
			return err
		}
		if c.obsOn {
			j.env.Observer.ObserveSuperstep(c.smp)
		}
	}
	return nil
}

// rounds finishes the round whose buffers are serialized and runs the
// rounds after it while any worker asks again. Two barrier crossings per
// round: the plain wait after Flush proves all sends are published, and
// the AllReduce after the decode proves all inputs were consumed, which
// makes Release safe. That reduce carries the again-flags and the
// termination vote in one word (barrier.Vote), so the last round's
// crossing also decides whether the job is over; rounds returns it.
func (c *Core) rounds() (uint64, error) {
	j, p, ep := c.job, c.prog, c.ep
	maxRounds := j.env.MaxRoundsPerStep
	if maxRounds == 0 {
		maxRounds = 1_000_000
	}
	for {
		c.count()
		if err := ep.Flush(); err != nil {
			return 0, c.errorf("%w", err)
		}
		if !c.timedWait() { // all sends published
			return 0, errAborted
		}
		for src := 0; src < c.NumWorkers(); src++ {
			if err := c.deserialize(src); err != nil {
				return 0, err
			}
		}
		vote, ok := c.timedAllReduce(barrier.Vote(p.Again(), c.activeCount > 0, c.halt))
		if !ok { // inputs consumed, votes reduced
			return 0, errAborted
		}
		ep.Release()
		if !barrier.Again(vote) {
			if c.obsOn {
				c.smp.Rounds = c.round
			}
			return vote, nil
		}
		if c.round++; c.round > maxRounds {
			return 0, fmt.Errorf("%s: superstep %d exceeded MaxRoundsPerStep=%d", j.name, c.superstep, maxRounds)
		}
		c.serialize()
	}
}

// serialize writes the round's buffer for every worker, this one
// included.
func (c *Core) serialize() {
	for dst := 0; dst < c.NumWorkers(); dst++ {
		buf := c.ep.Out(dst)
		mark := buf.Len()
		c.prog.Serialize(dst, buf)
		if c.obsOn {
			c.smp.BytesSent += int64(buf.Len() - mark)
		}
	}
}

// count accounts the round's outgoing buffers, about to be flushed.
func (c *Core) count() {
	var net int64
	flows := c.job.env.Flows
	for dst := 0; dst < c.NumWorkers(); dst++ {
		n := int64(c.ep.Out(dst).Len())
		if n == 0 {
			continue
		}
		if dst == c.id {
			c.localBytes += n
		} else {
			net += n
		}
		if flows != nil {
			flows.Record(c.id, dst, n)
		}
	}
	c.netBytes += net
	c.roundNet = append(c.roundNet, net)
}

// deserialize hands the round's buffer from src to the engine. Buffers
// that arrived over a socket are untrusted: ser.Decode turns a decode
// that panics on corrupt content into a worker error naming what was
// being decoded and the source, so a bad frame fails the job with a
// diagnostic instead of killing the process (and every co-hosted worker
// with it).
func (c *Core) deserialize(src int) error {
	in := c.ep.In(src)
	if c.obsOn {
		c.smp.BytesRecv += int64(in.Remaining())
	}
	var err error
	if perr := ser.Decode(func() { err = c.prog.Deserialize(src, in) }); perr != nil {
		what := ""
		if d := c.prog.Decoding(); d != nil {
			what = fmt.Sprintf(" for %T", d)
		}
		return c.errorf("corrupt frame content%s from worker %d: %v", what, src, perr)
	}
	return err
}

// timedWait crosses the shared barrier, attributing the blocked time to
// the current sample when observation is on.
func (c *Core) timedWait() bool {
	if !c.obsOn {
		return c.job.bar.Wait()
	}
	t0 := time.Now()
	ok := c.job.bar.Wait()
	c.smp.BarrierWaitNS += time.Since(t0).Nanoseconds()
	return ok
}

// timedAllReduce mirrors timedWait for the reducing crossings.
func (c *Core) timedAllReduce(v uint64) (uint64, bool) {
	if !c.obsOn {
		return c.job.bar.AllReduce(v)
	}
	t0 := time.Now()
	sum, ok := c.job.bar.AllReduce(v)
	c.smp.BarrierWaitNS += time.Since(t0).Nanoseconds()
	return sum, ok
}
