package algorithms

import (
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/ser"
)

// msfPregel runs Boruvka MSF on the baseline engine. This is the
// paper's canonical heterogeneous-message example (§V-A): the
// monolithic type must be a tagged 4-word tuple — big enough for a
// candidate edge — so every broadcast pair, every request and every
// one-word reply pays the full fat encoding, and no combiner can be
// used. Request/reply conversations additionally cost two supersteps
// each instead of the channel version's one.

type msfMTag = uint8

const (
	msfMBcast msfMTag = 1 // (id, comp)
	msfMCand  msfMTag = 2 // (w, u, v, c2)
	msfMDReq  msfMTag = 3 // (requester)
	msfMDRep  msfMTag = 4 // (droot)
	msfMJReq  msfMTag = 5 // (requester)
	msfMJRep  msfMTag = 6 // (cur)
)

// msfMMsg is the monolithic message: a tag plus four words, always
// encoded in full.
type msfMMsg struct {
	Tag        msfMTag
	A, B, C, D uint32
}

type msfMMsgCodec struct{}

func (msfMMsgCodec) Encode(b *ser.Buffer, m msfMMsg) {
	b.WriteUint8(m.Tag)
	b.WriteUint32(m.A)
	b.WriteUint32(m.B)
	b.WriteUint32(m.C)
	b.WriteUint32(m.D)
}

func (msfMMsgCodec) Decode(b *ser.Buffer) msfMMsg {
	return msfMMsg{Tag: b.ReadUint8(), A: b.ReadUint32(), B: b.ReadUint32(), C: b.ReadUint32(), D: b.ReadUint32()}
}

// msfPAgg carries (selected, jumped) counters.
type msfPAgg struct{ Sel, Jump int64 }

type msfPAggCodec struct{}

func (msfPAggCodec) Encode(b *ser.Buffer, v msfPAgg) {
	b.WriteVarint(v.Sel)
	b.WriteVarint(v.Jump)
}

func (msfPAggCodec) Decode(b *ser.Buffer) msfPAgg {
	return msfPAgg{Sel: b.ReadVarint(), Jump: b.ReadVarint()}
}

func msfPAggSum(a, b msfPAgg) msfPAgg { return msfPAgg{Sel: a.Sel + b.Sel, Jump: a.Jump + b.Jump} }

type msfPPhase uint8

const (
	msfPBcast msfPPhase = iota
	msfPCand
	msfPSelect
	msfPDServe
	msfPResolve
	msfPJServe
	msfPJApply
)

// msfPregel runs the baseline Boruvka MSF on an undirected weighted
// graph.
func msfPregel(g *graph.Graph, opts Options) (MSFResult, pregel.Metrics, error) {
	part := opts.Part
	compStates := make([][]graph.VertexID, part.NumWorkers())
	edgeStates := make([][]graph.Edge, part.NumWorkers())
	cfg := pregel.Config[msfMMsg, struct{}, msfPAgg]{
		Env:        withFrags(opts, g),
		MsgCodec:   msfMMsgCodec{},
		AggCombine: msfPAggSum,
		AggCodec:   msfPAggCodec{},
	}
	met, err := pregel.Run(cfg, func(w *pregel.Worker[msfMMsg, struct{}, msfPAgg]) {
		f := w.Frag()
		n := w.LocalCount()
		comp := make([]graph.VertexID, n)
		cur := make([]graph.VertexID, n)
		droot := make([]graph.VertexID, n)
		pend := make([]msfCandMsg, n)
		nbrComp := make([]map[graph.VertexID]graph.VertexID, n)
		compStates[w.WorkerID()] = comp

		phase := msfPBcast
		phaseStart := 1
		phaseStep := 0
		stopping := false

		w.Checkpoint(func(buf *ser.Buffer) {
			msfSaveCore(buf, comp, cur, droot, pend, nbrComp, edgeStates[w.WorkerID()])
			buf.WriteUint8(uint8(phase))
			buf.WriteVarint(int64(phaseStart))
			buf.WriteVarint(int64(phaseStep))
			buf.WriteBool(stopping)
		}, func(buf *ser.Buffer) {
			edgeStates[w.WorkerID()] = msfLoadCore(buf, comp, cur, droot, pend, nbrComp)
			phase = msfPPhase(buf.ReadUint8())
			phaseStart = int(buf.ReadVarint())
			phaseStep = int(buf.ReadVarint())
			stopping = buf.ReadBool()
		})

		evalPhase := func() {
			step := w.Superstep()
			if phaseStep == step {
				return
			}
			phaseStep = step
			res := w.AggResult()
			enter := func(p msfPPhase) { phase, phaseStart = p, step }
			switch phase {
			case msfPBcast:
				if step > phaseStart {
					enter(msfPCand)
				}
			case msfPCand:
				enter(msfPSelect)
			case msfPSelect:
				enter(msfPDServe)
				if res.Sel == 0 {
					stopping = true
					w.RequestStop()
				}
			case msfPDServe:
				enter(msfPResolve)
			case msfPResolve:
				enter(msfPJServe)
			case msfPJServe:
				enter(msfPJApply)
			case msfPJApply:
				if res.Jump == 0 {
					enter(msfPBcast)
				} else {
					enter(msfPJServe)
				}
			}
		}

		w.Compute = func(li int, msgs []msfMMsg) {
			evalPhase()
			if stopping {
				w.VoteToHalt()
				return
			}
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				comp[li] = id
				cur[li] = id
			}
			switch phase {
			case msfPBcast:
				comp[li] = cur[li]
				for _, a := range f.Neighbors(li) {
					w.SendAddr(a, msfMMsg{Tag: msfMBcast, A: uint32(id), B: comp[li]})
				}
			case msfPCand:
				nc := nbrComp[li]
				if nc == nil {
					nc = make(map[graph.VertexID]graph.VertexID)
					nbrComp[li] = nc
				}
				for _, m := range msgs {
					if m.Tag == msfMBcast {
						nc[m.A] = m.B
					}
				}
				best := msfCandMsg{}
				ws := g.NeighborWeights(id)
				for i, v := range g.Neighbors(id) {
					c2, ok := nc[v]
					if !ok || c2 == comp[li] {
						continue
					}
					best = msfCandMin(best, msfCandMsg{W: ws[i], U: id, V: v, C2: c2, Valid: true})
				}
				if best.Valid {
					w.Send(comp[li], msfMMsg{Tag: msfMCand, A: uint32(best.W), B: best.U, C: best.V, D: best.C2})
				}
			case msfPSelect:
				droot[li] = comp[li]
				pend[li].Valid = false
				if id == comp[li] {
					best := msfCandMsg{}
					for _, m := range msgs {
						if m.Tag == msfMCand {
							best = msfCandMin(best, msfCandMsg{W: int32(m.A), U: m.B, V: m.C, C2: m.D, Valid: true})
						}
					}
					if best.Valid {
						droot[li] = best.C2
						pend[li] = best
						w.Aggregate(msfPAgg{Sel: 1})
						w.Send(best.C2, msfMMsg{Tag: msfMDReq, A: uint32(id)})
					}
				}
			case msfPDServe:
				for _, m := range msgs {
					if m.Tag == msfMDReq {
						w.Send(m.A, msfMMsg{Tag: msfMDRep, A: uint32(droot[li])})
					}
				}
			case msfPResolve:
				if id == comp[li] && pend[li].Valid {
					gp := graph.VertexID(0xFFFFFFFF)
					for _, m := range msgs {
						if m.Tag == msfMDRep {
							gp = m.A
						}
					}
					countEdge := true
					if gp == id {
						if id < droot[li] {
							droot[li] = id
						} else {
							countEdge = false
						}
					}
					if countEdge {
						e := graph.Edge{Src: pend[li].U, Dst: pend[li].V, Weight: pend[li].W}
						edgeStates[w.WorkerID()] = append(edgeStates[w.WorkerID()], e)
					}
				}
				if id == comp[li] {
					cur[li] = droot[li]
				} else {
					cur[li] = comp[li]
				}
				w.Send(cur[li], msfMMsg{Tag: msfMJReq, A: uint32(id)})
			case msfPJServe:
				for _, m := range msgs {
					if m.Tag == msfMJReq {
						w.Send(m.A, msfMMsg{Tag: msfMJRep, A: uint32(cur[li])})
					}
				}
			case msfPJApply:
				for _, m := range msgs {
					if m.Tag == msfMJRep && graph.VertexID(m.A) != cur[li] {
						cur[li] = m.A
						w.Aggregate(msfPAgg{Jump: 1})
					}
				}
				w.Send(cur[li], msfMMsg{Tag: msfMJReq, A: uint32(id)})
			}
		}
	})
	res := MSFResult{Comp: gather(part, compStates)}
	for _, es := range edgeStates {
		for _, e := range es {
			res.Edges = append(res.Edges, e)
			res.Weight += int64(e.Weight)
		}
	}
	return res, met, err
}
