package algorithms

import (
	"repro/internal/ckpt"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/ser"
)

// sccPregel runs Min-Label SCC on the baseline engine. The monolithic
// message type must carry the fattest payload of any phase (sender id +
// label pair), every message pays for a kind tag, and no combiner is
// possible because the kinds need different semantics (counts are
// summed, labels are min'd) — the §II-B costs the channel version
// avoids, visible in Table IV's SCC message sizes.

type sccMTag = uint8

const (
	sccMDecIn  sccMTag = 1
	sccMDecOut sccMTag = 2
	sccMPairO  sccMTag = 3 // pair broadcast to out-neighbors
	sccMPairI  sccMTag = 4 // pair broadcast to in-neighbors
	sccMFwd    sccMTag = 5
	sccMBwd    sccMTag = 6
)

// sccMMsg is the monolithic fat message: tag + three words.
type sccMMsg struct {
	Tag     sccMTag
	A, B, C uint32
}

type sccMMsgCodec struct{}

func (sccMMsgCodec) Encode(b *ser.Buffer, m sccMMsg) {
	b.WriteUint8(m.Tag)
	b.WriteUint32(m.A)
	b.WriteUint32(m.B)
	b.WriteUint32(m.C)
}

func (sccMMsgCodec) Decode(b *ser.Buffer) sccMMsg {
	return sccMMsg{Tag: b.ReadUint8(), A: b.ReadUint32(), B: b.ReadUint32(), C: b.ReadUint32()}
}

// sccAgg carries (activity, newly-done) counts through the single
// global aggregator of the baseline engine.
type sccAgg struct{ Act, Done int64 }

type sccAggCodec struct{}

func (sccAggCodec) Encode(b *ser.Buffer, v sccAgg) {
	b.WriteVarint(v.Act)
	b.WriteVarint(v.Done)
}

func (sccAggCodec) Decode(b *ser.Buffer) sccAgg {
	return sccAgg{Act: b.ReadVarint(), Done: b.ReadVarint()}
}

func sccAggSum(a, b sccAgg) sccAgg { return sccAgg{Act: a.Act + b.Act, Done: a.Done + b.Done} }

// sccPregel runs the baseline Min-Label SCC.
func sccPregel(g *graph.Graph, opts Options) ([]graph.VertexID, pregel.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	opts = withFrags(opts, g)
	bwdFrags := opts.Frags.Reverse()
	cfg := pregel.Config[sccMMsg, struct{}, sccAgg]{
		Env:        opts,
		MsgCodec:   sccMMsgCodec{},
		AggCombine: sccAggSum,
		AggCodec:   sccAggCodec{},
	}
	met, err := pregel.Run(cfg, func(w *pregel.Worker[sccMMsg, struct{}, sccAgg]) {
		fwdF := w.Frag()
		bwdF := bwdFrags.Frag(w.WorkerID())
		n := w.LocalCount()
		scc := make([]graph.VertexID, n)
		done := make([]bool, n)
		liveIn := make([]int32, n)
		liveOut := make([]int32, n)
		pairF := make([]uint32, n)
		pairB := make([]uint32, n)
		f := make([]uint32, n)
		b := make([]uint32, n)
		sameOut := make([][]frag.Addr, n)
		sameIn := make([][]frag.Addr, n)
		states[w.WorkerID()] = scc

		phase := sccTrim
		phaseStart := 1
		phaseStep := 0
		var doneTotal int64

		w.Checkpoint(func(buf *ser.Buffer) {
			ckpt.SaveSlice(buf, vidCodec, scc)
			ckpt.SaveSlice(buf, ser.BoolCodec{}, done)
			ckpt.SaveSlice(buf, ser.VarintCodec[int32]{}, liveIn)
			ckpt.SaveSlice(buf, ser.VarintCodec[int32]{}, liveOut)
			ckpt.SaveSlice(buf, ser.Uint32Codec{}, pairF)
			ckpt.SaveSlice(buf, ser.Uint32Codec{}, pairB)
			ckpt.SaveSlice(buf, ser.Uint32Codec{}, f)
			ckpt.SaveSlice(buf, ser.Uint32Codec{}, b)
			saveAddrLists(buf, sameOut)
			saveAddrLists(buf, sameIn)
			buf.WriteUint8(uint8(phase))
			buf.WriteVarint(int64(phaseStart))
			buf.WriteVarint(int64(phaseStep))
			buf.WriteVarint(doneTotal)
		}, func(buf *ser.Buffer) {
			ckpt.LoadSlice(buf, vidCodec, scc)
			ckpt.LoadSlice(buf, ser.BoolCodec{}, done)
			ckpt.LoadSlice(buf, ser.VarintCodec[int32]{}, liveIn)
			ckpt.LoadSlice(buf, ser.VarintCodec[int32]{}, liveOut)
			ckpt.LoadSlice(buf, ser.Uint32Codec{}, pairF)
			ckpt.LoadSlice(buf, ser.Uint32Codec{}, pairB)
			ckpt.LoadSlice(buf, ser.Uint32Codec{}, f)
			ckpt.LoadSlice(buf, ser.Uint32Codec{}, b)
			loadAddrLists(buf, sameOut)
			loadAddrLists(buf, sameIn)
			phase = sccPhase(buf.ReadUint8())
			phaseStart = int(buf.ReadVarint())
			phaseStep = int(buf.ReadVarint())
			doneTotal = buf.ReadVarint()
		})

		evalPhase := func() {
			step := w.Superstep()
			if phaseStep == step {
				return
			}
			phaseStep = step
			res := w.AggResult()
			doneTotal += res.Done
			if doneTotal >= int64(w.NumVertices()) {
				w.RequestStop()
				return
			}
			enter := func(p sccPhase) { phase, phaseStart = p, step }
			switch phase {
			case sccTrim:
				if step > phaseStart && res.Act == 0 {
					enter(sccPair)
				}
			case sccPair:
				enter(sccFwd)
			case sccFwd:
				if step >= phaseStart+2 && res.Act == 0 {
					enter(sccBwd)
				}
			case sccBwd:
				if step >= phaseStart+2 && res.Act == 0 {
					enter(sccRecog)
				}
			case sccRecog:
				enter(sccTrim)
			}
		}

		remove := func(li int, sccID graph.VertexID) {
			done[li] = true
			scc[li] = sccID
			for _, a := range fwdF.Neighbors(li) {
				w.SendAddr(a, sccMMsg{Tag: sccMDecIn})
			}
			for _, a := range bwdF.Neighbors(li) {
				w.SendAddr(a, sccMMsg{Tag: sccMDecOut})
			}
			w.VoteToHalt()
		}

		w.Compute = func(li int, msgs []sccMMsg) {
			evalPhase()
			step := w.Superstep()
			if step == 1 {
				liveIn[li] = int32(bwdF.OutDegree(li))
				liveOut[li] = int32(fwdF.OutDegree(li))
			}
			if done[li] && phase != sccTrim {
				w.VoteToHalt()
				return
			}
			id := w.GlobalID(li)
			switch phase {
			case sccTrim:
				for _, m := range msgs {
					switch m.Tag {
					case sccMDecIn:
						liveIn[li]--
					case sccMDecOut:
						liveOut[li]--
					}
				}
				if done[li] {
					w.VoteToHalt()
					return
				}
				if liveIn[li] == 0 || liveOut[li] == 0 {
					remove(li, id)
					w.Aggregate(sccAgg{Act: 1, Done: 1})
				}
			case sccPair:
				m := sccMMsg{A: uint32(id), B: pairF[li], C: pairB[li]}
				m.Tag = sccMPairO
				for _, a := range fwdF.Neighbors(li) {
					w.SendAddr(a, m)
				}
				m.Tag = sccMPairI
				for _, a := range bwdF.Neighbors(li) {
					w.SendAddr(a, m)
				}
			case sccFwd:
				if step == phaseStart {
					sameOut[li] = sameOut[li][:0]
					sameIn[li] = sameIn[li][:0]
					for _, m := range msgs {
						if m.B != pairF[li] || m.C != pairB[li] {
							continue
						}
						switch m.Tag {
						case sccMPairI: // sender is an out-neighbor
							sameOut[li] = append(sameOut[li], w.Addr(m.A))
						case sccMPairO: // sender is an in-neighbor
							sameIn[li] = append(sameIn[li], w.Addr(m.A))
						}
					}
					f[li] = uint32(id)
					for _, a := range sameOut[li] {
						w.SendAddr(a, sccMMsg{Tag: sccMFwd, A: f[li]})
					}
					return
				}
				changedF := false
				for _, m := range msgs {
					if m.Tag == sccMFwd && m.A < f[li] {
						f[li] = m.A
						changedF = true
					}
				}
				if changedF {
					w.Aggregate(sccAgg{Act: 1})
					for _, a := range sameOut[li] {
						w.SendAddr(a, sccMMsg{Tag: sccMFwd, A: f[li]})
					}
				}
			case sccBwd:
				if step == phaseStart {
					b[li] = uint32(id)
					for _, a := range sameIn[li] {
						w.SendAddr(a, sccMMsg{Tag: sccMBwd, A: b[li]})
					}
					return
				}
				changed := false
				for _, m := range msgs {
					if m.Tag == sccMBwd && m.A < b[li] {
						b[li] = m.A
						changed = true
					}
				}
				if changed {
					w.Aggregate(sccAgg{Act: 1})
					for _, a := range sameIn[li] {
						w.SendAddr(a, sccMMsg{Tag: sccMBwd, A: b[li]})
					}
				}
			case sccRecog:
				if f[li] == b[li] {
					remove(li, graph.VertexID(f[li]))
					w.Aggregate(sccAgg{Act: 1, Done: 1})
				} else {
					pairF[li] = f[li]
					pairB[li] = b[li]
				}
			}
		}
	})
	return gather(part, states), met, err
}
