package algorithms

import (
	"repro/internal/channel"
	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/ser"
)

// Pointer-Jumping (paper §V-B2): given a forest of rooted trees encoded
// as parent pointers (each vertex's single out-edge points to its
// parent; roots have no out-edge or a self-loop), every vertex finds the
// root of its tree by repeated pointer doubling D[u] := D[D[u]].
//
// The communication is a pure request-respond conversation: each round a
// vertex asks its current parent for the parent's pointer. Variants:
//
//	pointerJumpChannel        — DirectMessage request + reply pair
//	                            (2 supersteps per jump, replies from a
//	                            hub are sent one per requester)
//	pointerJumpReqResp        — RequestRespond channel (1 superstep per
//	                            jump, per-worker request dedup, ordered
//	                            value-only replies)
//	pointerJumpPregel         — baseline engine, messages only
//	pointerJumpPregelReqResp  — baseline engine in Pregel+ reqresp mode
//	                            ((id,value) replies)

// parentOf returns the initial parent of id in the forest graph (itself
// if it is a root).
func parentOf(g *graph.Graph, id graph.VertexID) graph.VertexID {
	nbrs := g.Neighbors(id)
	if len(nbrs) == 0 {
		return id
	}
	return nbrs[0]
}

// pointerJumpChannel runs pointer jumping with standard channels: a
// request DirectMessage carrying the requester id and a reply
// DirectMessage carrying the parent's pointer.
func pointerJumpChannel(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	met, err := engine.Run(opts, func(w *engine.Worker) {
		d := make([]graph.VertexID, w.LocalCount())
		states[w.WorkerID()] = d
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, vidCodec, d) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, vidCodec, d) },
		)
		reqCh := channel.NewDirectMessage[uint32](w, ser.Uint32Codec{})
		repCh := channel.NewDirectMessage[uint32](w, ser.Uint32Codec{})
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			step := w.Superstep()
			if step == 1 {
				d[li] = parentOf(g, id)
				if d[li] == id {
					w.VoteToHalt() // already a root
					return
				}
				reqCh.Send(w.Addr(d[li]), id)
				return
			}
			if step%2 == 0 {
				// even steps: serve requests (a vertex may be woken only
				// to reply), and otherwise wait for our own reply
				for _, requester := range reqCh.Messages(li) {
					repCh.Send(w.Addr(requester), d[li])
				}
				w.VoteToHalt() // reply (next odd step) reactivates us
				return
			}
			// odd steps: consume the reply
			for _, gp := range repCh.Messages(li) {
				if gp == d[li] {
					// parent's pointer equals our pointer: parent is root
					w.VoteToHalt()
					return
				}
				d[li] = gp
			}
			reqCh.Send(w.Addr(d[li]), id)
		}
	})
	return gather(part, states), met, err
}

// pointerJumpReqResp runs pointer jumping with the RequestRespond
// channel: one superstep per jump.
func pointerJumpReqResp(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	met, err := engine.Run(opts, func(w *engine.Worker) {
		d := make([]graph.VertexID, w.LocalCount())
		states[w.WorkerID()] = d
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, vidCodec, d) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, vidCodec, d) },
		)
		var rr *channel.RequestRespond[uint32]
		rr = channel.NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 {
			return d[li]
		})
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				d[li] = parentOf(g, id)
				if d[li] == id {
					w.VoteToHalt()
					return
				}
				rr.Request(w.Addr(d[li]))
				return
			}
			gp, ok := rr.Respond()
			if !ok {
				w.VoteToHalt()
				return
			}
			if gp == d[li] {
				w.VoteToHalt()
				return
			}
			d[li] = gp
			rr.Request(w.Addr(d[li]))
		}
	})
	return gather(part, states), met, err
}

// pointerJumpPregel runs pointer jumping on the baseline engine with
// explicit request and reply messages sharing the monolithic uint32
// message type (phase disambiguated by superstep parity).
func pointerJumpPregel(g *graph.Graph, opts Options) ([]graph.VertexID, pregel.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	cfg := pregel.Config[uint32, struct{}, struct{}]{
		Env:      opts,
		MsgCodec: ser.Uint32Codec{},
	}
	met, err := pregel.Run(cfg, func(w *pregel.Worker[uint32, struct{}, struct{}]) {
		d := make([]graph.VertexID, w.LocalCount())
		states[w.WorkerID()] = d
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, vidCodec, d) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, vidCodec, d) },
		)
		w.Compute = func(li int, msgs []uint32) {
			id := w.GlobalID(li)
			step := w.Superstep()
			if step == 1 {
				d[li] = parentOf(g, id)
				if d[li] == id {
					w.VoteToHalt()
					return
				}
				w.Send(d[li], id)
				return
			}
			if step%2 == 0 {
				for _, requester := range msgs {
					w.Send(requester, d[li])
				}
				w.VoteToHalt()
				return
			}
			for _, gp := range msgs {
				if gp == d[li] {
					w.VoteToHalt()
					return
				}
				d[li] = gp
			}
			w.Send(d[li], id)
		}
	})
	return gather(part, states), met, err
}

// pointerJumpPregelReqResp runs pointer jumping on the baseline engine
// in reqresp mode (Pregel+ style (id,value) replies).
func pointerJumpPregelReqResp(g *graph.Graph, opts Options) ([]graph.VertexID, pregel.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	var responder func(w *pregel.Worker[uint32, uint32, struct{}], li int) uint32
	stateOf := make([][]graph.VertexID, part.NumWorkers())
	responder = func(w *pregel.Worker[uint32, uint32, struct{}], li int) uint32 {
		return stateOf[w.WorkerID()][li]
	}
	cfg := pregel.Config[uint32, uint32, struct{}]{
		Env:       opts,
		MsgCodec:  ser.Uint32Codec{},
		RespCodec: ser.Uint32Codec{},
		Responder: responder,
	}
	met, err := pregel.Run(cfg, func(w *pregel.Worker[uint32, uint32, struct{}]) {
		d := make([]graph.VertexID, w.LocalCount())
		states[w.WorkerID()] = d
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, vidCodec, d) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, vidCodec, d) },
		)
		stateOf[w.WorkerID()] = d
		w.Compute = func(li int, msgs []uint32) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				d[li] = parentOf(g, id)
				if d[li] == id {
					w.VoteToHalt()
					return
				}
				w.Request(d[li])
				return
			}
			gp, ok := w.Resp()
			if !ok {
				w.VoteToHalt()
				return
			}
			if gp == d[li] {
				w.VoteToHalt()
				return
			}
			d[li] = gp
			w.Request(d[li])
		}
	})
	return gather(part, states), met, err
}
