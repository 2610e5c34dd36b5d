package algorithms

import (
	"repro/internal/channel"
	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/ser"
)

// Baseline S-V implementations on the monolithic-message engine.
//
// In basic mode all four message kinds (grandparent requests, replies,
// neighborhood broadcasts, merge values) share one message type, which
// must therefore be a tagged union — and because the kinds need
// different combining semantics, no combiner can be used at all. This is
// exactly the §II-B problem: the paper measures the resulting message
// inflation at 1.55x (sparse) to 5.52x (dense) against the channel
// version.
//
// In reqresp mode the requests leave the message space, the remaining
// two kinds occupy disjoint supersteps and both want min-combining, so
// a bare uint32 message with a min combiner works (program 1 of
// Table VI).
//
// In both modes only non-roots fetch D[D[u]]: a root (D[u] = u) is its
// own grandparent and takes gp = D[u] without a request, as
// pointerjump.go's roots halt at superstep 1 instead of asking
// themselves.

// svTag distinguishes message kinds in the monolithic type.
type svTag = uint8

const (
	svReq   svTag = 1 // carries the requester id
	svRep   svTag = 2 // carries D[parent]
	svBcast svTag = 3 // carries the sender's D
	svMerge svTag = 4 // carries the candidate minimum t
)

// svMsg is the monolithic message: every send pays for the tag byte.
type svMsg struct {
	Tag svTag
	Val uint32
}

type svMsgCodec struct{}

func (svMsgCodec) Encode(b *ser.Buffer, m svMsg) {
	b.WriteUint8(m.Tag)
	b.WriteUint32(m.Val)
}

func (svMsgCodec) Decode(b *ser.Buffer) svMsg {
	return svMsg{Tag: b.ReadUint8(), Val: b.ReadUint32()}
}

// svPregel runs S-V on the baseline engine in basic mode (tagged
// messages, no combiner), 4 supersteps per iteration.
func svPregel(g *graph.Graph, opts Options) ([]graph.VertexID, pregel.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	cfg := pregel.Config[svMsg, struct{}, bool]{
		Env:        withFrags(opts, g),
		MsgCodec:   svMsgCodec{},
		AggCombine: orBool,
		AggCodec:   ser.BoolCodec{},
	}
	met, err := pregel.Run(cfg, func(w *pregel.Worker[svMsg, struct{}, bool]) {
		f := w.Frag()
		n := w.LocalCount()
		d := make([]graph.VertexID, n)
		tmin := make([]graph.VertexID, n)
		changed := make([]bool, n)
		states[w.WorkerID()] = d
		w.Checkpoint(
			func(buf *ser.Buffer) {
				ckpt.SaveSlice(buf, vidCodec, d)
				ckpt.SaveSlice(buf, vidCodec, tmin)
				ckpt.SaveSlice(buf, ser.BoolCodec{}, changed)
			},
			func(buf *ser.Buffer) {
				ckpt.LoadSlice(buf, vidCodec, d)
				ckpt.LoadSlice(buf, vidCodec, tmin)
				ckpt.LoadSlice(buf, ser.BoolCodec{}, changed)
			},
		)
		w.Compute = func(li int, msgs []svMsg) {
			id := f.GlobalID(li)
			step := w.Superstep()
			if step == 1 {
				d[li] = id
			}
			switch (step - 1) % 4 {
			case 0: // A: broadcast + grandparent request (non-roots)
				if step > 1 && !w.AggResult() {
					w.VoteToHalt()
					w.RequestStop()
					return
				}
				for _, a := range f.Neighbors(li) {
					w.SendAddr(a, svMsg{Tag: svBcast, Val: d[li]})
				}
				if d[li] != id {
					w.Send(d[li], svMsg{Tag: svReq, Val: id})
				}
			case 1: // B': serve requests, buffer the neighborhood min
				t := uint32(0xFFFFFFFF)
				for _, m := range msgs {
					switch m.Tag {
					case svReq:
						w.Send(m.Val, svMsg{Tag: svRep, Val: d[li]})
					case svBcast:
						if m.Val < t {
							t = m.Val
						}
					}
				}
				tmin[li] = t
			case 2: // B: decide; a root got no reply and keeps gp = D[u]
				gp := d[li]
				for _, m := range msgs {
					if m.Tag == svRep {
						gp = m.Val
					}
				}
				if gp == d[li] {
					if t := tmin[li]; t != 0xFFFFFFFF && t < d[li] {
						w.Send(d[li], svMsg{Tag: svMerge, Val: t})
					}
				} else {
					d[li] = gp
					changed[li] = true
				}
			case 3: // C: roots apply merges; convergence aggregation
				for _, m := range msgs {
					if m.Tag == svMerge && m.Val < d[li] {
						d[li] = m.Val
						changed[li] = true
					}
				}
				w.Aggregate(changed[li])
				changed[li] = false
			}
		}
	})
	return gather(part, states), met, err
}

// svPregelReqResp runs S-V on the baseline engine in reqresp mode:
// 3 supersteps per iteration, bare uint32 messages with a min combiner.
func svPregelReqResp(g *graph.Graph, opts Options) ([]graph.VertexID, pregel.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	dStates := make([][]graph.VertexID, part.NumWorkers())
	cfg := pregel.Config[uint32, uint32, bool]{
		Env:       withFrags(opts, g),
		MsgCodec:  ser.Uint32Codec{},
		Combiner:  channel.Min[uint32]().Combine,
		RespCodec: ser.Uint32Codec{},
		Responder: func(w *pregel.Worker[uint32, uint32, bool], li int) uint32 {
			return dStates[w.WorkerID()][li]
		},
		AggCombine: orBool,
		AggCodec:   ser.BoolCodec{},
	}
	met, err := pregel.Run(cfg, func(w *pregel.Worker[uint32, uint32, bool]) {
		f := w.Frag()
		n := w.LocalCount()
		d := make([]graph.VertexID, n)
		changed := make([]bool, n)
		states[w.WorkerID()] = d
		dStates[w.WorkerID()] = d
		w.Checkpoint(
			func(buf *ser.Buffer) {
				ckpt.SaveSlice(buf, vidCodec, d)
				ckpt.SaveSlice(buf, ser.BoolCodec{}, changed)
			},
			func(buf *ser.Buffer) {
				ckpt.LoadSlice(buf, vidCodec, d)
				ckpt.LoadSlice(buf, ser.BoolCodec{}, changed)
			},
		)
		w.Compute = func(li int, msgs []uint32) {
			id := f.GlobalID(li)
			step := w.Superstep()
			if step == 1 {
				d[li] = id
			}
			switch (step - 1) % 3 {
			case 0: // A
				if step > 1 && !w.AggResult() {
					w.VoteToHalt()
					w.RequestStop()
					return
				}
				for _, a := range f.Neighbors(li) {
					w.SendAddr(a, d[li])
				}
				if d[li] != id {
					w.Request(d[li])
				}
			case 1: // B
				gp, ok := w.Resp()
				if !ok { // a root fetched nothing: D[D[u]] = D[u]
					gp = d[li]
				}
				hasT := len(msgs) > 0
				t := uint32(0)
				if hasT {
					t = msgs[0]
				}
				if gp == d[li] {
					if hasT && t < d[li] {
						w.Send(d[li], t)
					}
				} else {
					d[li] = gp
					changed[li] = true
				}
			case 2: // C
				if len(msgs) > 0 && msgs[0] < d[li] {
					d[li] = msgs[0]
					changed[li] = true
				}
				w.Aggregate(changed[li])
				changed[li] = false
			}
		}
	})
	return gather(part, states), met, err
}
