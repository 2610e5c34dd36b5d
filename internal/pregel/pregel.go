// Package pregel implements the baseline the paper compares against: a
// classic Pregel engine with a monolithic message-passing interface, in
// the style of Pregel+. It shares the channel engine's telemetry seam —
// Config.Observer receives one obs.SuperstepSample per (worker,
// superstep), with whole-buffer byte/frame counts and no per-channel
// breakdown, since a monolithic stream has no channels to attribute to.
// One global message type serves every
// communication in the program (the root cause of the problems §II-B
// describes), a single optional global combiner applies to all messages
// or none, and two optional special modes extend the engine the way
// Pregel+ does:
//
//   - reqresp mode: vertices may request an attribute of any vertex;
//     requests are merged per worker, but — as in Pregel+ and unlike the
//     paper's RequestRespond channel — each response carries the
//     requested vertex ID alongside the value (§V-B2 measures this
//     difference as a constant 33% reply-size overhead);
//   - ghost (mirroring) mode: vertices whose degree reaches the
//     threshold broadcast to neighbors via per-worker mirrors, sending
//     one message per worker instead of one per neighbor (sender-side
//     combining, §V-B1).
//
// The engine shares the partition, serialization, and simulated
// transport with the channel engine, so runtimes and byte counts are
// directly comparable. It also shares the channel engine's
// fault-tolerance seam: Config.Checkpoint cuts a ckpt.Record per worker
// at the barrier-aligned point after compute and before the superstep's
// message round(s) — the round structure (one round, or two when
// responses or aggregation are in play) is recorded so a restore
// replays exactly the rounds the superstep ran, and the record is
// persisted before one more, certifying AllReduce that only checkpoint
// supersteps pay, so completeness is all-or-nothing across the party.
package pregel

import (
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

// Config configures a baseline job. M is the single global message type,
// R the reqresp response type and A the aggregator type (use struct{}
// and nil codecs for unused facilities).
type Config[M, R, A any] struct {
	Part *partition.Partition
	// Frags, if set, gives every worker a pre-resolved shared-nothing
	// fragment (exposed as Worker.Frag); ghost mode and SendToNbrs use it
	// instead of the global graph + partition. Built from Adjacency when
	// unset. When Part is nil it is taken from Frags.
	Frags *frag.Fragments
	Cost  comm.CostModel
	// Fabric is the transport the job's workers exchange buffers and
	// synchronize through. Nil selects the in-process zero-copy fabric;
	// a distributed fabric (internal/netcomm) may host only a subset of
	// the workers in this process.
	Fabric comm.Fabric
	// MaxSupersteps aborts runaway jobs; 0 means 10_000.
	MaxSupersteps int
	// Cancel, if non-nil, aborts the run when closed: the shared
	// barrier is released, workers unwind, and Run returns
	// barrier.ErrCancelled (unless a worker failed for a real reason
	// first, which wins).
	Cancel <-chan struct{}
	// Observer, if non-nil, receives one obs.SuperstepSample per
	// (worker, superstep). The baseline engine has a single monolithic
	// message stream, so samples carry whole-buffer byte counts and a
	// fixed round count (1, or 2 with reqresp/aggregator) and leave the
	// per-channel breakdown nil. Nil disables all collection.
	Observer obs.Observer
	// Checkpoint, if non-nil with a store, snapshots every worker's
	// state at the barrier-aligned cut every Interval supersteps and, on
	// Restore > 0, resumes from the saved superstep. The algorithm must
	// register Save/Restore closures via Worker.Checkpoint.
	Checkpoint *ckpt.Hook
	// Flows, if non-nil, attaches a per-(src,dst) flow-matrix
	// accumulator to the in-process fabric Run creates when Fabric is
	// nil (callers supplying a Fabric attach flows to it directly).
	Flows *obs.FlowAccum

	// MsgCodec encodes the global message type.
	MsgCodec ser.Codec[M]
	// Combiner, if non-nil, is the single global combiner applied to all
	// messages (Pregel's rule: one combiner for the whole program).
	Combiner func(a, b M) M

	// Responder enables reqresp mode: it produces the response for a
	// requested local vertex. RespCodec must be set with it.
	Responder func(w *Worker[M, R, A], li int) R
	RespCodec ser.Codec[R]

	// AggCombine enables the aggregator; AggCodec must be set with it.
	AggCombine func(a, b A) A
	AggCodec   ser.Codec[A]
	AggZero    A

	// GhostThreshold enables ghost (mirroring) mode for SendToNbrs when
	// > 0: vertices with at least this many out-edges broadcast via
	// mirrors (the paper uses threshold 16). Adjacency is required for
	// SendToNbrs in any case.
	GhostThreshold int
	Adjacency      *graph.Graph
}

// Metrics mirrors engine.Metrics for the baseline engine.
type Metrics struct {
	Supersteps int
	Comm       comm.Stats
	WallTime   time.Duration
}

// SimTime returns wall time plus simulated network time.
func (m Metrics) SimTime() time.Duration { return m.WallTime + m.Comm.SimNetTime }

// Worker is the per-node handle passed to the algorithm.
type Worker[M, R, A any] struct {
	id   int
	cfg  *Config[M, R, A]
	frag *frag.Fragment
	job  *job[M, R, A]
	ep   comm.Endpoint

	active      []bool
	activeCount int
	current     int
	superstep   int
	halt        bool // RequestStop was called on this worker

	// Compute is invoked for every active local vertex each superstep
	// with the combined/collected messages from the previous superstep.
	Compute func(li int, msgs []M)

	// checkpoint closures (Worker.Checkpoint) and the record being
	// assembled while the cut superstep's exchange rounds run.
	ckptSave    func(buf *ser.Buffer)
	ckptRestore func(buf *ser.Buffer)
	ckptRec     *ckpt.Record

	// outgoing message staging. Destinations are staged pre-resolved as
	// their dense local index on the owning worker (also the wire
	// encoding — one fixed uint32 per message, exactly the bytes the
	// global-id format used). Combining still stages through a hash map:
	// that is the monolithic baseline of §V-B1 the dense channels are
	// measured against.
	outDirect [][]dmsg[M]    // basic mode: per dst worker
	outComb   []map[uint32]M // combiner mode: per dst worker, keyed by local index
	outGhost  [][]dmsg[M]    // ghost broadcasts: per dst worker (dst = hub id)
	// ghost tables
	hubWorkers [][]int32                  // per local hub slot: worker ids with mirrors
	hubSlot    []int32                    // per local vertex: index into hubWorkers or -1
	ghostAdj   map[graph.VertexID][]int32 // hub id -> local neighbor indices on this worker

	// inbox (delivered last superstep)
	inboxList [][]M
	touched   []int
	inComb    []M
	inCombSet []int32 // epoch stamps
	scratch   []M

	// reqresp state: requests held as local indices on the responder
	// (resolved once in Request), responses keyed the same way
	reqStaging [][]uint32
	reqPending [][]uint32
	asked      [][]uint32
	respVals   []map[uint32]R
	reqOf      []frag.Addr
	reqEpoch   []int32

	// aggregator state
	aggCurr     A
	aggCurrSet  bool
	aggResult   A
	aggGathered A
	aggGathSet  bool

	// superstep trace collection (Config.Observer); obsOn gates every
	// trace statement so the disabled path costs one branch per phase.
	obsOn  bool
	obsSmp obs.SuperstepSample
}

// dmsg is one staged message; dst is a pre-resolved local index on the
// destination worker (or a hub's global id on the ghost path).
type dmsg[M any] struct {
	dst uint32
	m   M
}

// job is the per-Run coordination state shared by this process's
// workers; all cross-worker communication goes through the fabric.
type job[M, R, A any] struct {
	cfg *Config[M, R, A]
	fab comm.Fabric
	bar barrier.Barrier
}

// --- Worker API used by algorithm closures ---

// WorkerID returns this worker's id.
func (w *Worker[M, R, A]) WorkerID() int { return w.id }

// NumWorkers returns the worker count.
func (w *Worker[M, R, A]) NumWorkers() int { return w.cfg.Part.NumWorkers() }

// NumVertices returns the global vertex count.
func (w *Worker[M, R, A]) NumVertices() int { return w.cfg.Part.NumVertices() }

// LocalCount returns the number of local vertices.
func (w *Worker[M, R, A]) LocalCount() int { return w.cfg.Part.LocalCount(w.id) }

// GlobalID returns the vertex id at local index li.
func (w *Worker[M, R, A]) GlobalID(li int) graph.VertexID { return w.cfg.Part.GlobalID(w.id, li) }

// LocalIndex returns v's local index on its owner. Transitional
// accessor: hot superstep loops should consume packed addresses.
func (w *Worker[M, R, A]) LocalIndex(v graph.VertexID) int { return w.cfg.Part.LocalIndex(v) }

// Owner returns the worker owning v. Transitional accessor: hot
// superstep loops should consume packed addresses.
func (w *Worker[M, R, A]) Owner(v graph.VertexID) int { return w.cfg.Part.Owner(v) }

// Addr returns v's packed pre-resolved address. Use it for occasional
// dynamic destinations; static adjacency comes pre-resolved from Frag.
func (w *Worker[M, R, A]) Addr(v graph.VertexID) frag.Addr { return frag.Of(w.cfg.Part, v) }

// Frag returns this worker's shared-nothing fragment (nil unless
// Config.Frags was set or built from Config.Adjacency).
func (w *Worker[M, R, A]) Frag() *frag.Fragment { return w.frag }

// Superstep returns the current superstep, starting at 1.
func (w *Worker[M, R, A]) Superstep() int { return w.superstep }

// VoteToHalt halts the current vertex until a message reactivates it.
func (w *Worker[M, R, A]) VoteToHalt() {
	if w.active[w.current] {
		w.active[w.current] = false
		w.activeCount--
	}
}

// ActivateLocal wakes local vertex li.
func (w *Worker[M, R, A]) ActivateLocal(li int) {
	if !w.active[li] {
		w.active[li] = true
		w.activeCount++
	}
}

// RequestStop terminates the job after this superstep.
func (w *Worker[M, R, A]) RequestStop() { w.halt = true }

// Checkpoint registers the algorithm's state closures: save appends the
// per-worker vertex state (local order) to the buffer, restore reads the
// same encoding back into the already-allocated state. Both run at the
// barrier-aligned cut point (after compute, before the exchange rounds).
// Required when Config.Checkpoint has a store; a no-op otherwise.
func (w *Worker[M, R, A]) Checkpoint(save, restore func(buf *ser.Buffer)) {
	w.ckptSave, w.ckptRestore = save, restore
}

// Send sends m to vertex dst, delivered next superstep. Transitional
// id-based entry point: per-edge loops should iterate Frag().Neighbors
// and call SendAddr with the pre-resolved address.
func (w *Worker[M, R, A]) Send(dst graph.VertexID, m M) {
	w.SendAddr(w.Addr(dst), m)
}

// SendAddr sends m to the vertex at packed address a, delivered next
// superstep.
func (w *Worker[M, R, A]) SendAddr(a frag.Addr, m M) {
	o := a.Worker()
	li := a.Local()
	if w.cfg.Combiner != nil {
		if old, ok := w.outComb[o][li]; ok {
			w.outComb[o][li] = w.cfg.Combiner(old, m)
		} else {
			w.outComb[o][li] = m
		}
		return
	}
	w.outDirect[o] = append(w.outDirect[o], dmsg[M]{dst: li, m: m})
}

// SendToNbrs broadcasts m along the out-edges of the current vertex.
// With ghost mode enabled and the vertex above the threshold, one
// message per mirror worker is sent instead of one per neighbor.
func (w *Worker[M, R, A]) SendToNbrs(m M) {
	if w.frag == nil {
		panic("pregel: SendToNbrs requires Config.Adjacency or Config.Frags")
	}
	if slot := w.hubSlot; slot != nil && slot[w.current] >= 0 {
		id := uint32(w.GlobalID(w.current))
		for _, wk := range w.hubWorkers[slot[w.current]] {
			w.outGhost[wk] = append(w.outGhost[wk], dmsg[M]{dst: id, m: m})
		}
		return
	}
	for _, a := range w.frag.Neighbors(w.current) {
		w.SendAddr(a, m)
	}
}

// Request asks for vertex dst's attribute (reqresp mode); the response
// is available next superstep via Resp.
func (w *Worker[M, R, A]) Request(dst graph.VertexID) {
	if w.cfg.Responder == nil {
		panic("pregel: Request requires Config.Responder")
	}
	a := w.Addr(dst)
	w.reqOf[w.current] = a
	w.reqEpoch[w.current] = int32(w.superstep)
	w.reqStaging[a.Worker()] = append(w.reqStaging[a.Worker()], a.Local())
}

// Resp returns the response for the destination the current vertex
// requested in the previous superstep.
func (w *Worker[M, R, A]) Resp() (R, bool) {
	var zero R
	if w.reqEpoch[w.current] != int32(w.superstep-1) {
		return zero, false
	}
	a := w.reqOf[w.current]
	v, ok := w.respVals[a.Worker()][a.Local()]
	return v, ok
}

// RespFor returns the response for an explicit destination requested in
// the previous superstep by any vertex of this worker.
func (w *Worker[M, R, A]) RespFor(dst graph.VertexID) (R, bool) {
	a := w.Addr(dst)
	v, ok := w.respVals[a.Worker()][a.Local()]
	return v, ok
}

// Aggregate contributes a to this superstep's aggregation.
func (w *Worker[M, R, A]) Aggregate(a A) {
	if w.cfg.AggCombine == nil {
		panic("pregel: Aggregate requires Config.AggCombine")
	}
	if w.aggCurrSet {
		w.aggCurr = w.cfg.AggCombine(w.aggCurr, a)
	} else {
		w.aggCurr = a
		w.aggCurrSet = true
	}
}

// AggResult returns the aggregate of the previous superstep.
func (w *Worker[M, R, A]) AggResult() A { return w.aggResult }

// Run executes a baseline job. setup is called once per worker to
// allocate state and install Compute.
func Run[M, R, A any](cfg Config[M, R, A], setup func(w *Worker[M, R, A])) (Metrics, error) {
	if cfg.Part == nil && cfg.Frags != nil {
		cfg.Part = cfg.Frags.Part
	}
	if cfg.Part == nil {
		return Metrics{}, fmt.Errorf("pregel: Config.Part or Config.Frags is required")
	}
	if cfg.Frags != nil && cfg.Frags.Part != cfg.Part {
		// packed addresses resolved under a different partition would
		// silently deliver messages to the wrong vertices
		return Metrics{}, fmt.Errorf("pregel: Config.Frags was built from a different partition than Config.Part")
	}
	if cfg.MsgCodec == nil {
		return Metrics{}, fmt.Errorf("pregel: Config.MsgCodec is required")
	}
	if cfg.Frags == nil && cfg.Adjacency != nil {
		// SendToNbrs and ghost tables consume pre-resolved fragments; a
		// caller that only has the global adjacency pays the resolution
		// once here.
		cfg.Frags = frag.Build(cfg.Adjacency, cfg.Part)
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
		return Metrics{}, fmt.Errorf("pregel: fabric has %d workers, partition has %d", fab.NumWorkers(), m)
	}
	j := &job[M, R, A]{cfg: &cfg, fab: fab, bar: fab.Barrier()}
	locals := fab.LocalWorkers()
	workers := make([]*Worker[M, R, A], len(locals))
	for i, id := range locals {
		workers[i] = &Worker[M, R, A]{id: id, cfg: &cfg, job: j, current: -1, ep: fab.Endpoint(id)}
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
	// Minimum superstep any local worker reached: the only count that
	// was globally completed when a worker failed part-way.
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
		err = barrier.ErrCancelled
	} else if err == nil && j.bar.Aborted() {
		// every local error was an abort echo: the root cause lives in
		// another process — surface the abort instead of claiming success
		err = errAborted
	}
	return met, err
}
