// Package pregel implements the baseline the paper compares against: a
// classic Pregel engine with a monolithic message-passing interface, in
// the style of Pregel+. It runs on the same superstep driver as the
// channel engine and stages and delivers through the same slot types
// (internal/bsp), so the two are measured on what the model fixes and
// nothing else: its message format — one global message type serves
// every communication in the program (the root cause of the problems
// §II-B describes), each message tagged with its destination as a fixed
// uint32 — and its combiner scope — a single optional global combiner
// applies to all messages or none (§V-B1). Two optional special modes
// extend the engine the way Pregel+ does:
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
// messages, ghost broadcasts and requests; round 2 (present iff reqresp
// is configured) carries responses. The aggregator is the driver's
// (bsp.Aggregator), as the channel engine's is: its partials ride round
// 1's barrier crossing, in neither round. Every index read off a peer's buffer is
// checked before use. Superstep samples carry whole-buffer byte counts,
// one frame per buffer, and no per-channel breakdown, since a monolithic
// stream has no channels to attribute to; checkpoint records carry the
// per-vertex request stamps of reqresp mode.
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
	cfg   *Config[M, R, A]
	setup func(*Worker[M, R, A])

	// Compute is invoked for every active local vertex each superstep
	// with the combined/collected messages from the previous superstep.
	Compute func(li int, msgs []M)

	// outgoing staging. Destinations are staged pre-resolved as their
	// dense local index on the owning worker, which is also what the
	// wire carries.
	out   []bsp.Updates[M] // basic mode: per dst worker
	comb  bsp.Outbox[M]    // combiner mode: per dst worker, first-touch order
	ghost []bsp.Updates[M] // ghost broadcasts: per dst worker, Idx = hub id
	// ghost tables
	hubWorkers [][]int32                  // per local hub slot: worker ids with mirrors
	hubSlot    []int32                    // per local vertex: index into hubWorkers or -1
	ghostAdj   map[graph.VertexID][]int32 // hub id -> local neighbor indices on this worker
	// per worker: a hub here has mirrors there (ghostTo), a hub there has
	// mirrors here (ghostFrom) — where round 1's buffers carry a ghost
	// section
	ghostTo, ghostFrom []bool

	// delivered last superstep: with a combiner, one value per vertex;
	// without, round 1's messages in arrival order (source worker, then
	// send order), grouped by receiver in Again
	in    bsp.Stamped[M]
	inbox bsp.Inbox[M]

	// reqresp state
	at    bsp.Stamped[frag.Addr] // per local vertex: what it requested, when
	req   bsp.Outbox[struct{}]   // requests per responder, deduplicated
	asked [][]uint32             // per requester: local indices it asked for
	resp  []bsp.Stamped[R]       // per responder: its responses, by local index

	agg *bsp.Aggregator[A] // with Config.AggCombine
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
	if w.cfg.Combiner != nil {
		w.comb.Stage(a.Worker(), a.Local(), m, int32(w.Superstep()), w.cfg.Combiner)
		return
	}
	w.out[a.Worker()].Add(a.Local(), m)
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
			w.ghost[wk].Add(id, m)
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
	a, e := w.Addr(dst), int32(w.Superstep())
	w.at.Set(w.CurrentLocal(), a, e)
	w.req.Stage(a.Worker(), a.Local(), struct{}{}, e, repeat)
}

// repeat combines a repeated request into the staged one: requests
// carry no value, the slot's stamp is the dedup.
func repeat(a, _ struct{}) struct{} { return a }

// Resp returns the response for the destination the current vertex
// requested in the previous superstep.
func (w *Worker[M, R, A]) Resp() (R, bool) {
	prev := int32(w.Superstep() - 1)
	if a, ok := w.at.Get(w.CurrentLocal(), prev); ok {
		return w.resp[a.Worker()].Get(int(a.Local()), prev)
	}
	var zero R
	return zero, false
}

// Aggregate contributes a to this superstep's aggregation.
func (w *Worker[M, R, A]) Aggregate(a A) {
	if w.agg == nil {
		panic("pregel: Aggregate requires Config.AggCombine")
	}
	w.agg.Add(a)
}

// AggResult returns the aggregate of the previous superstep.
func (w *Worker[M, R, A]) AggResult() A {
	if w.agg == nil {
		return w.cfg.AggZero
	}
	return w.agg.Result()
}
