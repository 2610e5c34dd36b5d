package algorithms

import (
	"repro/internal/channel"
	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/ser"
)

// Min-Label SCC (paper §V-C2, algorithm of Yan et al. [30]): an
// iterative algorithm whose main loop contains four subroutines — the
// removal of trivial SCCs (trim), forward and backward label
// propagation, SCC recognition, and relabeling. Vertices carry a label
// pair (f, b); propagation is restricted to edges whose endpoints share
// the pair, so each round decomposes the remaining graph, and vertices
// with f == b form a recognized SCC.
//
// Variants:
//
//	sccChannel      — standard channels: pair exchange via DirectMessage,
//	                  min-combined label messages, one hop per superstep
//	                  (slow convergence — the problem Table VII exposes)
//	sccPropagation  — the forward/backward propagations run on
//	                  Propagation channels and converge within one
//	                  superstep each round (the paper's "quick fix")
//	sccPregel       — monolithic baseline: one tagged fat message type,
//	                  no combiner (scc_pregel.go)
//
// The phase machine is replicated deterministically on every worker:
// transitions depend only on aggregator results, which all workers
// observe identically.

type sccPhase uint8

const (
	sccTrim  sccPhase = iota
	sccPair           // broadcast (id, f-pair, b-pair) both directions
	sccFwd            // basic: iterative forward min-label propagation
	sccBwd            // basic: iterative backward min-label propagation
	sccSeed           // prop: register same-pair edges + seed both propagations
	sccRecog          // read labels, recognize SCCs, relabel
)

// sccPairMsg carries a sender's identity and frozen label pair.
type sccPairMsg struct {
	ID graph.VertexID
	F  uint32
	B  uint32
}

type sccPairCodec struct{}

func (sccPairCodec) Encode(b *ser.Buffer, m sccPairMsg) {
	b.WriteUint32(m.ID)
	b.WriteUint32(m.F)
	b.WriteUint32(m.B)
}

func (sccPairCodec) Decode(b *ser.Buffer) sccPairMsg {
	return sccPairMsg{ID: b.ReadUint32(), F: b.ReadUint32(), B: b.ReadUint32()}
}

// sccState is the per-worker algorithm state shared by both channel
// variants.
type sccState struct {
	w        *engine.Worker
	fwd      *frag.Fragment   // this worker's fragment of the forward graph
	bwd      *frag.Fragment   // this worker's fragment of the reverse graph
	scc      []graph.VertexID // result: SCC id per local vertex
	done     []bool
	liveIn   []int32
	liveOut  []int32
	pairF    []uint32
	pairB    []uint32
	f        []uint32
	b        []uint32
	sameOut  [][]frag.Addr // per local vertex: same-pair out-neighbors, pre-resolved
	sameIn   [][]frag.Addr // per local vertex: same-pair in-neighbors, pre-resolved
	fChanged []bool
	bChanged []bool

	phase      sccPhase
	phaseStart int
	phaseStep  int // superstep at which phase was last evaluated
	doneTotal  int64

	decIn   *channel.CombinedMessage[uint32] // decrements liveIn of receivers
	decOut  *channel.CombinedMessage[uint32] // decrements liveOut of receivers
	pairOut *channel.DirectMessage[sccPairMsg]
	pairIn  *channel.DirectMessage[sccPairMsg]
	act     *channel.Aggregator[int64]
	doneAgg *channel.Aggregator[int64]
}

func newSCCState(w *engine.Worker, fwd, bwd *frag.Fragment) *sccState {
	n := w.LocalCount()
	s := &sccState{
		w: w, fwd: fwd, bwd: bwd,
		scc:      make([]graph.VertexID, n),
		done:     make([]bool, n),
		liveIn:   make([]int32, n),
		liveOut:  make([]int32, n),
		pairF:    make([]uint32, n),
		pairB:    make([]uint32, n),
		f:        make([]uint32, n),
		b:        make([]uint32, n),
		sameOut:  make([][]frag.Addr, n),
		sameIn:   make([][]frag.Addr, n),
		fChanged: make([]bool, n),
		bChanged: make([]bool, n),
		phase:    sccTrim,
	}
	s.phaseStart = 1
	s.phaseStep = 0
	s.decIn = channel.NewCombinedMessage[uint32](w, ser.Uint32Codec{}, channel.Sum[uint32]())
	s.decOut = channel.NewCombinedMessage[uint32](w, ser.Uint32Codec{}, channel.Sum[uint32]())
	s.pairOut = channel.NewDirectMessage[sccPairMsg](w, sccPairCodec{})
	s.pairIn = channel.NewDirectMessage[sccPairMsg](w, sccPairCodec{})
	s.act = channel.NewAggregator[int64](w, ser.Int64Codec{}, channel.Sum[int64](), 0)
	s.doneAgg = channel.NewAggregator[int64](w, ser.Int64Codec{}, channel.Sum[int64](), 0)
	return s
}

// checkpoint registers the Save/Restore closures covering the full SCC
// state, including the replicated phase machine — every worker restores
// the same (phase, phaseStart, phaseStep, doneTotal), so the machine
// stays in lockstep after recovery.
func (s *sccState) checkpoint() {
	s.w.Checkpoint(func(buf *ser.Buffer) {
		ckpt.SaveSlice(buf, vidCodec, s.scc)
		ckpt.SaveSlice(buf, ser.BoolCodec{}, s.done)
		ckpt.SaveSlice(buf, ser.VarintCodec[int32]{}, s.liveIn)
		ckpt.SaveSlice(buf, ser.VarintCodec[int32]{}, s.liveOut)
		ckpt.SaveSlice(buf, ser.Uint32Codec{}, s.pairF)
		ckpt.SaveSlice(buf, ser.Uint32Codec{}, s.pairB)
		ckpt.SaveSlice(buf, ser.Uint32Codec{}, s.f)
		ckpt.SaveSlice(buf, ser.Uint32Codec{}, s.b)
		saveAddrLists(buf, s.sameOut)
		saveAddrLists(buf, s.sameIn)
		buf.WriteUint8(uint8(s.phase))
		buf.WriteVarint(int64(s.phaseStart))
		buf.WriteVarint(int64(s.phaseStep))
		buf.WriteVarint(s.doneTotal)
	}, func(buf *ser.Buffer) {
		ckpt.LoadSlice(buf, vidCodec, s.scc)
		ckpt.LoadSlice(buf, ser.BoolCodec{}, s.done)
		ckpt.LoadSlice(buf, ser.VarintCodec[int32]{}, s.liveIn)
		ckpt.LoadSlice(buf, ser.VarintCodec[int32]{}, s.liveOut)
		ckpt.LoadSlice(buf, ser.Uint32Codec{}, s.pairF)
		ckpt.LoadSlice(buf, ser.Uint32Codec{}, s.pairB)
		ckpt.LoadSlice(buf, ser.Uint32Codec{}, s.f)
		ckpt.LoadSlice(buf, ser.Uint32Codec{}, s.b)
		loadAddrLists(buf, s.sameOut)
		loadAddrLists(buf, s.sameIn)
		s.phase = sccPhase(buf.ReadUint8())
		s.phaseStart = int(buf.ReadVarint())
		s.phaseStep = int(buf.ReadVarint())
		s.doneTotal = buf.ReadVarint()
	})
}

// remove marks the current vertex done with SCC id sccID and notifies
// its neighbors to decrement their live-degree counters.
func (s *sccState) remove(li int, sccID graph.VertexID) {
	s.done[li] = true
	s.scc[li] = sccID
	for _, a := range s.fwd.Neighbors(li) {
		s.decIn.Send(a, 1)
	}
	for _, a := range s.bwd.Neighbors(li) {
		s.decOut.Send(a, 1)
	}
	s.doneAgg.Add(1)
	s.w.VoteToHalt()
}

// evalPhase advances the replicated phase machine. It runs once per
// worker per superstep, driven by the first compute call; transitions
// depend only on globally agreed aggregator results. isProp selects the
// propagation-channel schedule. onEnter is invoked when a new phase is
// entered (e.g. to reset propagation channels).
func (s *sccState) evalPhase(isProp bool, onEnter func(p sccPhase)) {
	step := s.w.Superstep()
	if s.phaseStep == step {
		return
	}
	s.phaseStep = step
	s.doneTotal += s.doneAgg.Result()
	if s.doneTotal >= int64(s.w.NumVertices()) {
		s.w.RequestStop()
		return
	}
	enter := func(p sccPhase) {
		s.phase = p
		s.phaseStart = step
		if onEnter != nil {
			onEnter(p)
		}
	}
	switch s.phase {
	case sccTrim:
		if step > s.phaseStart && s.act.Result() == 0 {
			enter(sccPair)
		}
	case sccPair:
		if isProp {
			enter(sccSeed)
		} else {
			enter(sccFwd)
		}
	case sccFwd:
		// phaseStart consumes pair messages and seeds; changes counted
		// from phaseStart+1 on
		if step >= s.phaseStart+2 && s.act.Result() == 0 {
			enter(sccBwd)
		}
	case sccBwd:
		if step >= s.phaseStart+2 && s.act.Result() == 0 {
			enter(sccRecog)
		}
	case sccSeed:
		enter(sccRecog)
	case sccRecog:
		enter(sccTrim)
	}
}

// trimStep applies pending live-degree decrements and removes trivial
// SCCs.
func (s *sccState) trimStep(li int) {
	if d, ok := s.decIn.Message(li); ok {
		s.liveIn[li] -= int32(d)
	}
	if d, ok := s.decOut.Message(li); ok {
		s.liveOut[li] -= int32(d)
	}
	if s.done[li] {
		s.w.VoteToHalt()
		return
	}
	if s.liveIn[li] == 0 || s.liveOut[li] == 0 {
		s.remove(li, s.w.GlobalID(li))
		s.act.Add(1)
	}
}

// pairStep broadcasts the frozen pair to both neighborhoods.
func (s *sccState) pairStep(li int) {
	if s.done[li] {
		s.w.VoteToHalt()
		return
	}
	m := sccPairMsg{ID: s.w.GlobalID(li), F: s.pairF[li], B: s.pairB[li]}
	// to out-neighbors: receivers learn an in-neighbor's pair
	for _, a := range s.fwd.Neighbors(li) {
		s.pairOut.Send(a, m)
	}
	// to in-neighbors: receivers learn an out-neighbor's pair
	for _, a := range s.bwd.Neighbors(li) {
		s.pairIn.Send(a, m)
	}
}

// collectSameLists consumes the pair messages and rebuilds the same-pair
// neighbor lists of the current vertex, resolved once to packed
// addresses so the per-round propagation loops send without partition
// lookups.
func (s *sccState) collectSameLists(li int) {
	s.sameOut[li] = s.sameOut[li][:0]
	s.sameIn[li] = s.sameIn[li][:0]
	pf, pb := s.pairF[li], s.pairB[li]
	for _, m := range s.pairIn.Messages(li) {
		// sender is an out-neighbor of this vertex
		if m.F == pf && m.B == pb {
			s.sameOut[li] = append(s.sameOut[li], s.w.Addr(m.ID))
		}
	}
	for _, m := range s.pairOut.Messages(li) {
		// sender is an in-neighbor of this vertex
		if m.F == pf && m.B == pb {
			s.sameIn[li] = append(s.sameIn[li], s.w.Addr(m.ID))
		}
	}
}

// sccChannel runs Min-Label SCC with standard channels (fwd/bwd label
// propagation one hop per superstep).
func sccChannel(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	part := opts.Part
	opts = withFrags(opts, g)
	bwdFrags := opts.Frags.Reverse()
	states := make([][]graph.VertexID, part.NumWorkers())
	met, err := engine.Run(opts, func(w *engine.Worker) {
		s := newSCCState(w, w.Frag(), bwdFrags.Frag(w.WorkerID()))
		states[w.WorkerID()] = s.scc
		s.checkpoint()
		fwd := channel.NewCombinedMessage[uint32](w, ser.Uint32Codec{}, channel.Min[uint32]())
		bwd := channel.NewCombinedMessage[uint32](w, ser.Uint32Codec{}, channel.Min[uint32]())
		w.Compute = func(li int) {
			s.evalPhase(false, nil)
			if w.Superstep() == 1 {
				s.liveIn[li] = int32(s.bwd.OutDegree(li))
				s.liveOut[li] = int32(s.fwd.OutDegree(li))
			}
			if s.done[li] && s.phase != sccTrim {
				w.VoteToHalt()
				return
			}
			switch s.phase {
			case sccTrim:
				s.trimStep(li)
			case sccPair:
				s.pairStep(li)
			case sccFwd:
				step := w.Superstep()
				if step == s.phaseStart {
					s.collectSameLists(li)
					s.f[li] = uint32(w.GlobalID(li))
					for _, a := range s.sameOut[li] {
						fwd.Send(a, s.f[li])
					}
					return
				}
				if m, ok := fwd.Message(li); ok && m < s.f[li] {
					s.f[li] = m
					s.act.Add(1)
					for _, a := range s.sameOut[li] {
						fwd.Send(a, s.f[li])
					}
				}
			case sccBwd:
				step := w.Superstep()
				if step == s.phaseStart {
					s.b[li] = uint32(w.GlobalID(li))
					for _, a := range s.sameIn[li] {
						bwd.Send(a, s.b[li])
					}
					return
				}
				if m, ok := bwd.Message(li); ok && m < s.b[li] {
					s.b[li] = m
					s.act.Add(1)
					for _, a := range s.sameIn[li] {
						bwd.Send(a, s.b[li])
					}
				}
			case sccRecog:
				if s.f[li] == s.b[li] {
					s.remove(li, graph.VertexID(s.f[li]))
					s.act.Add(1)
				} else {
					s.pairF[li] = s.f[li]
					s.pairB[li] = s.b[li]
				}
			}
		}
	})
	return gather(part, states), met, err
}

// sccPropagation runs Min-Label SCC with the forward and backward label
// propagations on Propagation channels, converging each round's
// propagation within a single superstep (Table VII program 3).
func sccPropagation(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	part := opts.Part
	opts = withFrags(opts, g)
	bwdFrags := opts.Frags.Reverse()
	states := make([][]graph.VertexID, part.NumWorkers())
	met, err := engine.Run(opts, func(w *engine.Worker) {
		s := newSCCState(w, w.Frag(), bwdFrags.Frag(w.WorkerID()))
		states[w.WorkerID()] = s.scc
		s.checkpoint()
		fwd := channel.NewPropagation[uint32](w, ser.Uint32Codec{}, channel.Min[uint32]())
		bwd := channel.NewPropagation[uint32](w, ser.Uint32Codec{}, channel.Min[uint32]())
		onEnter := func(p sccPhase) {
			if p == sccSeed {
				fwd.Reset()
				bwd.Reset()
			}
		}
		w.Compute = func(li int) {
			s.evalPhase(true, onEnter)
			if w.Superstep() == 1 {
				s.liveIn[li] = int32(s.bwd.OutDegree(li))
				s.liveOut[li] = int32(s.fwd.OutDegree(li))
			}
			if s.done[li] && s.phase != sccTrim {
				w.VoteToHalt()
				return
			}
			switch s.phase {
			case sccTrim:
				s.trimStep(li)
			case sccPair:
				s.pairStep(li)
			case sccSeed:
				s.collectSameLists(li)
				id := uint32(w.GlobalID(li))
				for _, a := range s.sameOut[li] {
					fwd.AddAddr(a)
				}
				for _, a := range s.sameIn[li] {
					bwd.AddAddr(a)
				}
				fwd.SetValue(id)
				bwd.SetValue(id)
			case sccRecog:
				fv, _ := fwd.Value(li)
				bv, _ := bwd.Value(li)
				s.f[li] = fv
				s.b[li] = bv
				if fv == bv {
					s.remove(li, graph.VertexID(fv))
					s.act.Add(1)
				} else {
					s.pairF[li] = fv
					s.pairB[li] = bv
				}
			}
		}
	})
	return gather(part, states), met, err
}
