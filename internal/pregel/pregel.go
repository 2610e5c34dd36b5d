// Package pregel implements the baseline the paper compares against: a
// classic Pregel engine with a monolithic message-passing interface, in
// the style of Pregel+, on the same superstep driver as the channel
// engine (internal/bsp) — so the two differ in what a round carries and
// nothing else. One global message type serves every communication in
// the program (the root cause of the problems §II-B describes), a single
// optional global combiner applies to all messages or none, and two
// optional special modes extend the engine the way Pregel+ does:
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
// The wire protocol is fixed by the configuration: round 1 carries
// messages, ghost broadcasts, requests and aggregator partials; round 2
// (present iff reqresp or an aggregator is configured) carries responses
// and the aggregator result. Superstep samples carry whole-buffer byte
// counts, one frame per buffer, and no per-channel breakdown, since a
// monolithic stream has no channels to attribute to; checkpoint records
// carry the per-vertex request stamps of reqresp mode.
package pregel

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/ser"
)

// Config configures a baseline job. M is the single global message type,
// R the reqresp response type and A the aggregator type (use struct{}
// and nil codecs for unused facilities).
type Config[M, R, A any] struct {
	bsp.Env

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
	// mirrors (the paper uses threshold 16). SendToNbrs needs Frags, or
	// Adjacency to build them from.
	GhostThreshold int
	Adjacency      *graph.Graph
}

// Metrics summarizes a finished run.
type Metrics = bsp.Metrics

// Worker is the per-node handle passed to the algorithm.
type Worker[M, R, A any] struct {
	bsp.Core
	cfg    *Config[M, R, A]
	setup  func(*Worker[M, R, A])
	rounds int // exchange rounds per superstep: 1, or 2 with reqresp or an aggregator

	// Compute is invoked for every active local vertex each superstep
	// with the combined/collected messages from the previous superstep.
	Compute func(li int, msgs []M)

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
}

// dmsg is one staged message; dst is a pre-resolved local index on the
// destination worker (or a hub's global id on the ghost path).
type dmsg[M any] struct {
	dst uint32
	m   M
}

// Run executes a baseline job. setup is called once per worker to
// allocate state and install Compute.
func Run[M, R, A any](cfg Config[M, R, A], setup func(w *Worker[M, R, A])) (Metrics, error) {
	switch {
	case cfg.MsgCodec == nil:
		return Metrics{}, fmt.Errorf("pregel: Config.MsgCodec is required")
	case cfg.Responder != nil && cfg.RespCodec == nil:
		return Metrics{}, fmt.Errorf("pregel: Responder requires RespCodec")
	case cfg.AggCombine != nil && cfg.AggCodec == nil:
		return Metrics{}, fmt.Errorf("pregel: AggCombine requires AggCodec")
	}
	if cfg.Frags == nil && cfg.Adjacency != nil && cfg.Part != nil {
		// SendToNbrs and ghost tables consume pre-resolved fragments; a
		// caller that only has the global adjacency pays the resolution
		// once here.
		cfg.Frags = frag.Build(cfg.Adjacency, cfg.Part)
	}
	if cfg.GhostThreshold > 0 && cfg.Frags == nil {
		return Metrics{}, fmt.Errorf("pregel: GhostThreshold requires Adjacency or Frags")
	}
	return bsp.Run(cfg.Env, "pregel", func() bsp.Program {
		return program[M, R, A]{&Worker[M, R, A]{cfg: &cfg, setup: setup}}
	})
}

// --- Worker API used by algorithm closures ---

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
	f, cur := w.Frag(), w.CurrentLocal()
	if f == nil {
		panic("pregel: SendToNbrs requires Config.Adjacency or Config.Frags")
	}
	if slot := w.hubSlot; slot != nil && slot[cur] >= 0 {
		id := uint32(w.GlobalID(cur))
		for _, wk := range w.hubWorkers[slot[cur]] {
			w.outGhost[wk] = append(w.outGhost[wk], dmsg[M]{dst: id, m: m})
		}
		return
	}
	for _, a := range f.Neighbors(cur) {
		w.SendAddr(a, m)
	}
}

// Request asks for vertex dst's attribute (reqresp mode); the response
// is available next superstep via Resp.
func (w *Worker[M, R, A]) Request(dst graph.VertexID) {
	if w.cfg.Responder == nil {
		panic("pregel: Request requires Config.Responder")
	}
	a, cur := w.Addr(dst), w.CurrentLocal()
	w.reqOf[cur] = a
	w.reqEpoch[cur] = int32(w.Superstep())
	w.reqStaging[a.Worker()] = append(w.reqStaging[a.Worker()], a.Local())
}

// Resp returns the response for the destination the current vertex
// requested in the previous superstep.
func (w *Worker[M, R, A]) Resp() (R, bool) {
	var zero R
	cur := w.CurrentLocal()
	if w.reqEpoch[cur] != int32(w.Superstep()-1) {
		return zero, false
	}
	a := w.reqOf[cur]
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
