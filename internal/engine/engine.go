// Package engine implements the channel-based BSP runtime — the system
// the paper proposes. A Job runs M workers (goroutines standing in for
// cluster nodes), each owning a disjoint set of vertices. Computation
// proceeds in supersteps; within a superstep, after the per-vertex
// compute calls, the registered channels run one or more buffer-exchange
// rounds (paper Fig. 4) until no channel on any worker asks for another
// round. Channels are the only communication mechanism; the engine knows
// nothing about message semantics.
//
// Config.Observer is the telemetry seam: when set, every worker emits
// one obs.SuperstepSample per superstep — compute time, barrier-wait
// time, active vertices, exchange rounds, and bytes/frames counted at
// the engine's own serialize/deserialize points (per channel and in
// total), so the sample stream is identical whichever comm.Fabric
// carried the bytes. A nil observer keeps the hot loops free of
// collection work.
//
// Config.Checkpoint is the fault-tolerance seam (threaded through the
// same config path as Cancel/Fabric/Observer): when active, each worker
// cuts a ckpt.Record at the barrier-aligned point after AfterCompute and
// before the superstep's first exchange round, tees the raw incoming
// frames of every round into it, and persists it before crossing one
// more, certifying AllReduce that only checkpoint supersteps pay — so a
// checkpoint is either durable on every worker or ignored on every
// worker. Algorithms contribute
// their per-vertex state through Worker.Checkpoint save/restore
// closures; restore replays the saved rounds through the normal decode
// path, making a resumed run bit-identical to an undisturbed one.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/barrier"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ser"
)

// Channel is the interface every communication channel implements — the
// Go rendering of the paper's base class (Fig. 3): initialize(),
// serialize(), deserialize(), again(). AfterCompute is an explicit hook
// the C++ system hides inside its superstep driver; channels use it to
// retire the inbox the vertices just consumed and to stage the outbox.
type Channel interface {
	// Initialize is called once on every worker before superstep 1.
	Initialize()
	// AfterCompute is called after the worker finishes its local compute
	// calls, before the first exchange round of the superstep.
	AfterCompute()
	// Serialize appends this channel's outgoing data for worker dst to
	// buf. It is called once per destination per round while the channel
	// is active, in increasing dst order (dst == own worker id is the
	// local loopback).
	Serialize(dst int, buf *ser.Buffer)
	// Deserialize consumes one frame previously written by this
	// channel on worker src.
	Deserialize(src int, buf *ser.Buffer)
	// Again is called exactly once per exchange round on every
	// registered channel (active or not) after all Deserialize calls;
	// returning true requests another round (paper: again()).
	Again() bool
}

// StatefulChannel is the optional interface a channel implements when it
// carries state across supersteps that a replay cannot reconstruct
// (registered topology, handshake tables, pending request lists).
// SaveState is called at the checkpoint cut (after AfterCompute, before
// the first exchange round); RestoreState is called after Initialize on
// a restoring worker, before the cut superstep's rounds are replayed.
// Channels whose cross-superstep state is rebuilt by replaying the cut
// superstep's incoming frames (inbox slots, aggregator results) need not
// implement it.
type StatefulChannel interface {
	Channel
	SaveState(buf *ser.Buffer)
	RestoreState(buf *ser.Buffer)
}

// Config configures a Job.
type Config struct {
	Part *partition.Partition
	// Frags, if set, gives every worker a shared-nothing pre-resolved
	// fragment (exposed as Worker.Frag) so neighbor iteration and channel
	// sends never consult the global graph or partition. When Part is nil
	// it is taken from Frags.
	Frags *frag.Fragments
	Cost  comm.CostModel
	// Fabric is the transport the job's workers exchange buffers and
	// synchronize through. Nil selects the in-process zero-copy fabric
	// over all Part.NumWorkers() workers. A distributed fabric
	// (internal/netcomm) may host only a subset of the workers in this
	// process: Run then executes exactly the fabric's local workers and
	// relies on the fabric's barrier to synchronize with the rest of the
	// party in other processes.
	Fabric comm.Fabric
	// MaxSupersteps aborts runaway jobs; 0 means 10_000.
	MaxSupersteps int
	// MaxRoundsPerStep aborts a superstep whose channels never stop
	// asking for another exchange round (a buggy Again implementation);
	// 0 means 1_000_000.
	MaxRoundsPerStep int
	// Cancel, if non-nil, aborts the run when closed: the shared
	// barrier is released, workers unwind, and Run returns
	// barrier.ErrCancelled (unless a worker failed for a real reason
	// first, which wins).
	Cancel <-chan struct{}
	// Observer, if non-nil, receives one obs.SuperstepSample per
	// (worker, superstep): compute time, barrier-wait time, per-channel
	// bytes/frames in both directions, active-vertex count and exchange
	// rounds. Counting happens at the engine's serialize/deserialize
	// points, so samples are identical whichever fabric carried the
	// bytes. Nil disables all collection; the superstep loop then pays
	// only a per-phase nil check.
	Observer obs.Observer
	// Checkpoint, if non-nil with a store, snapshots every worker's
	// state at the barrier-aligned cut every Interval supersteps and, on
	// Restore > 0, resumes from the saved superstep instead of starting
	// fresh. The algorithm must register Save/Restore closures via
	// Worker.Checkpoint. Nil keeps the superstep loop checkpoint-free.
	Checkpoint *ckpt.Hook
	// Flows, if non-nil, attaches a per-(src,dst) flow-matrix
	// accumulator to the in-process fabric Run creates when Fabric is
	// nil. Callers supplying their own Fabric attach flows to it
	// directly (comm.Exchanger.SetFlows, netcomm.Config.Flows); this
	// field is then ignored.
	Flows *obs.FlowAccum
}

// Metrics summarizes a finished run. RunTime is the measured wall time
// of the in-process simulation; SimTime adds the simulated network time
// from the cost model, which is the number comparable to the paper's
// distributed runtimes.
type Metrics struct {
	Supersteps int
	Comm       comm.Stats
	WallTime   time.Duration
}

// SimTime returns wall time plus simulated network time.
func (m Metrics) SimTime() time.Duration { return m.WallTime + m.Comm.SimNetTime }

// Worker is the per-node runtime handle. Algorithms receive one Worker
// in their setup function, register channels on it, allocate per-worker
// vertex state (slices indexed by local index), and install Compute.
type Worker struct {
	id   int
	part *partition.Partition
	frag *frag.Fragment
	job  *job
	ep   comm.Endpoint

	channels []Channel
	chActive []bool
	decoding Channel // whose Deserialize ran last, for the corrupt-frame report

	active      []bool
	activeCount int
	current     int
	superstep   int
	halt        bool // RequestStop was called on this worker

	// Compute is invoked once per active local vertex per superstep
	// with the vertex's local index. Installed by the algorithm's setup
	// function.
	Compute func(li int)

	// checkpoint closures (Worker.Checkpoint) and the record being
	// assembled while the cut superstep's exchange rounds run.
	ckptSave    func(buf *ser.Buffer)
	ckptRestore func(buf *ser.Buffer)
	ckptRec     *ckpt.Record

	// superstep trace collection (Config.Observer); obsOn gates every
	// trace statement so the disabled path costs one branch per phase.
	obsOn  bool
	obsSmp obs.SuperstepSample
	obsCh  []obs.ChannelSample
}

// WorkerID returns this worker's id in [0, NumWorkers).
func (w *Worker) WorkerID() int { return w.id }

// NumWorkers returns the number of workers in the job.
func (w *Worker) NumWorkers() int { return w.part.NumWorkers() }

// NumVertices returns the total number of vertices in the graph.
func (w *Worker) NumVertices() int { return w.part.NumVertices() }

// LocalCount returns the number of vertices owned by this worker.
func (w *Worker) LocalCount() int { return w.part.LocalCount(w.id) }

// GlobalID returns the vertex id at local index li.
func (w *Worker) GlobalID(li int) graph.VertexID { return w.part.GlobalID(w.id, li) }

// Owner returns the worker owning vertex v. Transitional accessor: hot
// superstep loops should iterate Frag().Neighbors and pass packed
// addresses instead.
func (w *Worker) Owner(v graph.VertexID) int { return w.part.Owner(v) }

// LocalIndex returns v's local index on its owner. Transitional
// accessor: hot superstep loops should consume packed addresses.
func (w *Worker) LocalIndex(v graph.VertexID) int { return w.part.LocalIndex(v) }

// Addr returns v's packed pre-resolved address. Use it to resolve
// occasional dynamic destinations (e.g. a pointer fetched from a
// message); static adjacency comes pre-resolved from Frag().
func (w *Worker) Addr(v graph.VertexID) frag.Addr { return frag.Of(w.part, v) }

// Frag returns this worker's shared-nothing fragment, or nil when the
// job was configured without fragments (Config.Frags).
func (w *Worker) Frag() *frag.Fragment { return w.frag }

// Part returns the partition.
func (w *Worker) Part() *partition.Partition { return w.part }

// Superstep returns the current superstep number, starting at 1
// (paper: step_num()).
func (w *Worker) Superstep() int { return w.superstep }

// CurrentLocal returns the local index of the vertex whose Compute call
// is in progress. Channels use it to attribute sends and edge
// registrations to the calling vertex (paper: the implicit "this vertex"
// of the channel APIs).
func (w *Worker) CurrentLocal() int { return w.current }

// VoteToHalt deactivates the vertex currently computing. It is
// reactivated when a channel delivers it a message.
func (w *Worker) VoteToHalt() { w.DeactivateLocal(w.current) }

// DeactivateLocal halts the vertex at local index li.
func (w *Worker) DeactivateLocal(li int) {
	if w.active[li] {
		w.active[li] = false
		w.activeCount--
	}
}

// ActivateLocal wakes the vertex at local index li. Channels call this
// on message delivery; it takes effect at the next superstep.
func (w *Worker) ActivateLocal(li int) {
	if !w.active[li] {
		w.active[li] = true
		w.activeCount++
	}
}

// IsActiveLocal reports whether local vertex li is currently active.
func (w *Worker) IsActiveLocal(li int) bool { return w.active[li] }

// Checkpoint registers the algorithm's state closures: save appends the
// per-worker vertex state (local order) to the buffer, restore reads the
// same encoding back into the already-allocated state. Both run at the
// barrier-aligned cut point, so they see state exactly as it stands
// between compute and the exchange rounds. Required when
// Config.Checkpoint has a store; a no-op otherwise.
func (w *Worker) Checkpoint(save, restore func(buf *ser.Buffer)) {
	w.ckptSave, w.ckptRestore = save, restore
}

// Register adds a channel to the worker and returns its channel id.
// All workers must register the same channels in the same order.
func (w *Worker) Register(c Channel) int {
	w.channels = append(w.channels, c)
	w.chActive = append(w.chActive, false)
	return len(w.channels) - 1
}

// job is the per-Run coordination state shared by this process's
// workers. All cross-worker communication goes through the fabric and
// its barrier: nothing here is read by another worker.
type job struct {
	cfg Config
	fab comm.Fabric
	bar barrier.Barrier
}

// errAborted is the sentinel a worker returns when it stopped because a
// peer aborted the shared barrier; Run filters it out of the joined
// error so only root causes surface.
var errAborted = barrier.ErrAborted

// RequestStop asks the engine to terminate after the current superstep,
// regardless of remaining active vertices. Any worker may call it during
// compute (e.g. when an aggregator shows convergence).
func (w *Worker) RequestStop() { w.halt = true }

// Run executes a job. setup is called once per worker, concurrently,
// before superstep 1; it must register the same channel sequence on
// every worker and install w.Compute. Run returns when no vertex is
// active on any worker, when a worker calls RequestStop, or when
// MaxSupersteps is hit (which is reported as an error). With a
// distributed fabric hosting a subset of the workers, Run executes that
// subset and its Metrics cover this process's view (cumulative for the
// fabric when one fabric is shared across several Runs).
func Run(cfg Config, setup func(w *Worker)) (Metrics, error) {
	if cfg.Part == nil && cfg.Frags != nil {
		cfg.Part = cfg.Frags.Part
	}
	if cfg.Part == nil {
		return Metrics{}, fmt.Errorf("engine: Config.Part or Config.Frags is required")
	}
	if cfg.Frags != nil && cfg.Frags.Part != cfg.Part {
		// packed addresses resolved under a different partition would
		// silently deliver messages to the wrong vertices
		return Metrics{}, fmt.Errorf("engine: Config.Frags was built from a different partition than Config.Part")
	}
	maxSteps := cfg.MaxSupersteps
	if maxSteps == 0 {
		maxSteps = 10000
	}
	m := cfg.Part.NumWorkers()
	fab := cfg.Fabric
	if fab == nil {
		ip := comm.NewInProc(m, cfg.Cost)
		if cfg.Flows != nil {
			cfg.Flows.SetPlane("inproc")
			ip.Exchanger().SetFlows(cfg.Flows)
		}
		fab = ip
	}
	if fab.NumWorkers() != m {
		return Metrics{}, fmt.Errorf("engine: fabric has %d workers, partition has %d", fab.NumWorkers(), m)
	}
	j := &job{cfg: cfg, fab: fab, bar: fab.Barrier()}
	locals := fab.LocalWorkers()
	workers := make([]*Worker, len(locals))
	for i, id := range locals {
		workers[i] = &Worker{id: id, part: cfg.Part, job: j, current: -1, ep: fab.Endpoint(id)}
		if cfg.Frags != nil {
			workers[i].frag = cfg.Frags.Frag(id)
		}
	}

	start := time.Now()
	cancelled := barrier.WatchCancel(cfg.Cancel, j.bar)
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = workers[i].run(setup, maxSteps)
		}(i)
	}
	wg.Wait()

	// Report the minimum superstep any local worker reached: when a
	// worker fails, the supersteps its peers were mid-way through never
	// completed their exchanges, so the minimum is the only count that
	// was globally finished.
	minStep := workers[0].superstep
	for _, w := range workers[1:] {
		if w.superstep < minStep {
			minStep = w.superstep
		}
	}
	met := Metrics{
		Supersteps: minStep,
		Comm:       fab.Stats(),
		WallTime:   time.Since(start),
	}
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

// deserializeFrom dispatches the frames worker src sent this round.
// Buffers that arrived over a socket are untrusted: the envelope layer
// returns errors (NextUvarint/NextFrame) and the recover turns a
// panicking decode inside a channel's Deserialize — corrupt payload
// content the channel reads past or rejects — into a worker error
// naming the channel and the source, so a bad frame
// fails the job with a diagnostic instead of killing the process (and
// every co-hosted worker with it).
func (w *Worker) deserializeFrom(src int, sub *ser.Buffer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: worker %d: corrupt frame content for %T from worker %d: %v", w.id, w.decoding, src, r)
		}
	}()
	in := w.ep.In(src)
	if w.ckptRec != nil {
		// checkpoint tee: retain this round's raw incoming bytes
		// (loopback included) before any decode consumes them, so a
		// restore can replay the round without the fabric.
		w.ckptRec.Frames = append(w.ckptRec.Frames, append([]byte(nil), in.Unread()...))
	}
	if w.obsOn {
		w.obsSmp.BytesRecv += int64(in.Remaining())
	}
	return w.dispatchFrames(src, in, sub, true)
}

// dispatchFrames decodes one source's frame stream — the shared tail of
// the live receive path and the checkpoint replay path.
func (w *Worker) dispatchFrames(src int, in, sub *ser.Buffer, count bool) error {
	for in.Remaining() > 0 {
		ci64, err := in.NextUvarint()
		if err != nil {
			return fmt.Errorf("engine: worker %d: bad frame stream from worker %d: %w", w.id, src, err)
		}
		ci := int(ci64)
		if ci < 0 || ci >= len(w.channels) {
			return fmt.Errorf("engine: worker %d: bad channel id %d from worker %d", w.id, ci, src)
		}
		if err := in.NextFrame(sub); err != nil {
			return fmt.Errorf("engine: worker %d: bad frame from worker %d: %w", w.id, src, err)
		}
		if count && w.obsOn {
			w.obsSmp.FramesRecv++
			w.obsCh[ci].BytesRecv += int64(sub.Remaining())
			w.obsCh[ci].FramesRecv++
		}
		w.decoding = w.channels[ci]
		w.decoding.Deserialize(src, sub)
	}
	return nil
}

// run executes the worker loop; a worker that fails aborts the shared
// barrier so its peers return (with errAborted) instead of deadlocking
// on a synchronization point the failed worker will never reach.
func (w *Worker) run(setup func(w *Worker), maxSteps int) error {
	err := w.runSupersteps(setup, maxSteps)
	if err != nil && !errors.Is(err, errAborted) {
		w.job.bar.Abort()
	}
	return err
}

func (w *Worker) runSupersteps(setup func(w *Worker), maxSteps int) error {
	j := w.job
	m := w.NumWorkers()
	ep := w.ep

	// Per-worker setup: allocate state, register channels, set Compute.
	setup(w)
	if w.Compute == nil {
		return fmt.Errorf("engine: worker %d: setup did not install Compute", w.id)
	}
	ck := j.cfg.Checkpoint
	if ck.Active() && (w.ckptSave == nil || w.ckptRestore == nil) {
		return fmt.Errorf("engine: worker %d: Config.Checkpoint is set but setup registered no Checkpoint closures", w.id)
	}
	// All vertices start active (paper Fig. 4 line 3).
	w.active = make([]bool, w.LocalCount())
	for i := range w.active {
		w.active[i] = true
	}
	w.activeCount = len(w.active)

	if !j.bar.Wait() { // all workers finished setup (registration complete)
		return errAborted
	}
	for _, c := range w.channels {
		c.Initialize()
	}
	if !j.bar.Wait() {
		return errAborted
	}
	w.obsOn = j.cfg.Observer != nil
	if w.obsOn {
		w.obsCh = make([]obs.ChannelSample, len(w.channels))
	}

	// sub is the one reusable frame view of this worker's receive loop;
	// NextFrame re-points it at each incoming frame body, so the
	// steady-state decode path performs no allocation.
	var sub ser.Buffer

	if ck.Active() && ck.Restore > 0 {
		done, rerr := w.restoreCheckpoint(ck, m)
		if rerr != nil {
			return fmt.Errorf("engine: worker %d: restore checkpoint %d: %w", w.id, ck.Restore, rerr)
		}
		if done {
			// the restored superstep was the job's last: its termination
			// reduce, re-crossed above, said stop
			return nil
		}
	}

	for {
		w.superstep++
		if w.superstep > maxSteps {
			return fmt.Errorf("engine: exceeded MaxSupersteps=%d", maxSteps)
		}

		var stepStart time.Time
		if w.obsOn {
			w.obsSmp = obs.SuperstepSample{Worker: w.id, Superstep: w.superstep,
				ActiveVertices: int64(w.activeCount)}
			for i := range w.obsCh {
				w.obsCh[i] = obs.ChannelSample{}
			}
			stepStart = time.Now()
		}

		// Compute phase: every active local vertex.
		for li := 0; li < len(w.active); li++ {
			if w.active[li] {
				w.current = li
				w.Compute(li)
			}
		}
		w.current = -1
		for _, c := range w.channels {
			c.AfterCompute()
		}
		if w.obsOn {
			w.obsSmp.ComputeNS = time.Since(stepStart).Nanoseconds()
		}

		// Checkpoint cut: all workers sit between compute and the first
		// exchange round of the same superstep (the previous barrier
		// crossing aligned them), so the snapshot plus the superstep's
		// teed incoming frames form a globally consistent cut. The probe
		// fires here either way — the deterministic fault-injection point.
		ck.FireProbe(w.id, w.superstep)
		if ck.ShouldSave(w.superstep) {
			w.ckptRec = w.snapshotCut()
		}

		// Exchange rounds (paper Fig. 4 lines 6-14). Every superstep has
		// at least one round; rounds continue while any channel on any
		// worker asks again. Two barrier crossings per round: the plain
		// wait after Flush proves all sends are published, and the
		// AllReduce after the decode proves all inputs were consumed,
		// which makes Release safe. That reduce carries the again-flags
		// and the termination vote in one word (barrier.Vote), so the
		// last round's crossing also decides whether the job is over.
		for ci := range w.chActive {
			w.chActive[ci] = true
		}
		maxRounds := j.cfg.MaxRoundsPerStep
		if maxRounds == 0 {
			maxRounds = 1_000_000
		}
		round := 0
		var vote uint64 // the last round's reduced barrier.Vote
		for {
			round++
			if round > maxRounds {
				return fmt.Errorf("engine: superstep %d exceeded MaxRoundsPerStep=%d", w.superstep, maxRounds)
			}
			for ci, c := range w.channels {
				if !w.chActive[ci] {
					continue
				}
				for dst := 0; dst < m; dst++ {
					buf := ep.Out(dst)
					mark := buf.Len()
					buf.WriteUvarint(uint64(ci))
					frame := buf.BeginFrame()
					c.Serialize(dst, buf)
					buf.EndFrame(frame)
					if buf.Len() == frame+4 {
						buf.Truncate(mark) // nothing written: drop the empty frame
					} else if w.obsOn {
						w.obsSmp.BytesSent += int64(buf.Len() - mark)
						w.obsSmp.FramesSent++
						w.obsCh[ci].BytesSent += int64(buf.Len() - (frame + 4))
						w.obsCh[ci].FramesSent++
					}
				}
			}
			var stall0 time.Duration
			if w.obsOn {
				stall0 = ep.Stall()
			}
			if err := ep.Flush(); err != nil {
				return fmt.Errorf("engine: worker %d: %w", w.id, err)
			}
			if w.obsOn {
				w.obsSmp.SendStallNS += int64(ep.Stall() - stall0)
			}
			if !w.timedWait() { // serialize barrier: all sends published
				return errAborted
			}

			for src := 0; src < m; src++ {
				if err := w.deserializeFrom(src, &sub); err != nil {
					return err
				}
			}
			again := false
			for ci, c := range w.channels {
				w.chActive[ci] = c.Again()
				again = again || w.chActive[ci]
			}
			var ok bool
			vote, ok = w.timedAllReduce(barrier.Vote(again, w.activeCount > 0, w.halt))
			if !ok { // deserialize crossing: inputs consumed, votes reduced
				return errAborted
			}
			ep.Release()
			if !barrier.Again(vote) {
				break
			}
		}
		if w.obsOn {
			w.obsSmp.Rounds = round
		}

		// A superstep that cut a checkpoint publishes the record and then
		// crosses once more: that crossing is every worker's proof that
		// all peers' records for this superstep are durable, so
		// LatestComplete can trust any superstep the job moved past. The
		// record cannot ride the last round's crossing — it would certify
		// records not yet written — and a restore re-enters the loop by
		// re-crossing this same reduce (restoreCheckpoint).
		if w.ckptRec != nil {
			w.ckptRec.Rounds = round
			buf := ser.NewBuffer(4096)
			w.ckptRec.Encode(buf)
			perr := ck.Store.Put(ck.Job, w.superstep, w.id, buf.Bytes())
			w.ckptRec = nil
			if perr != nil {
				return fmt.Errorf("engine: worker %d: checkpoint superstep %d: %w", w.id, w.superstep, perr)
			}
			ck.AfterSave(w.superstep)
			var ok bool
			if vote, ok = w.timedAllReduce(w.termVote()); !ok {
				return errAborted
			}
		}
		if w.obsOn {
			w.obsSmp.Channels = append([]obs.ChannelSample(nil), w.obsCh...)
			j.cfg.Observer.ObserveSuperstep(w.obsSmp)
		}
		if barrier.Terminated(vote) {
			return nil
		}
	}
}

// termVote is this worker's termination post outside an exchange round:
// the certifying crossing of a checkpoint superstep and its re-crossing
// on restore.
func (w *Worker) termVote() uint64 {
	return barrier.Vote(false, w.activeCount > 0, w.halt)
}

// timedWait crosses the shared barrier, attributing the blocked time to
// the current sample when observation is on.
func (w *Worker) timedWait() bool {
	if !w.obsOn {
		return w.job.bar.Wait()
	}
	t0 := time.Now()
	ok := w.job.bar.Wait()
	w.obsSmp.BarrierWaitNS += time.Since(t0).Nanoseconds()
	return ok
}

// timedAllReduce mirrors timedWait for the reducing crossings.
func (w *Worker) timedAllReduce(v uint64) (uint64, bool) {
	if !w.obsOn {
		return w.job.bar.AllReduce(v)
	}
	t0 := time.Now()
	sum, ok := w.job.bar.AllReduce(v)
	w.obsSmp.BarrierWaitNS += time.Since(t0).Nanoseconds()
	return sum, ok
}
