package algorithms

import (
	"repro/internal/channel"
	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ser"
)

// Minimum Spanning Forest via distributed Boruvka (paper §V-A, the
// Chung-Condon parallel formulation [6]). Each round every component
// selects its minimum-weight outgoing edge (under a total order on
// edges), components merge along the selected edges with 2-cycles
// broken toward the smaller root, and the component forest is flattened
// by pointer jumping. The algorithm is the paper's showcase for
// heterogeneous message types: neighborhood broadcasts are (id, comp)
// pairs, candidates are 4-word edges, and the pointer chase is a
// request-respond conversation — in Pregel they all share one fat
// tagged type (msf_pregel.go), while the channel version gives each its
// own channel. Only vertices off the top of the component forest chase:
// a vertex with cur[u] = u would be answered cur[u], so it sends no
// request, as pointerjump.go's roots halt at superstep 1.
//
// MSFResult carries the selected forest edges and their total weight.
type MSFResult struct {
	Edges  []graph.Edge
	Weight int64
	// Comp is the final component id per vertex (equal for vertices in
	// the same connected component).
	Comp []graph.VertexID
}

type msfPhase uint8

const (
	msfBcast msfPhase = iota
	msfCand
	msfSelect
	msfResolve
	msfJump
)

// msfCandMsg is a candidate edge: weight, own-side endpoint, other-side
// endpoint, and the other side's component.
type msfCandMsg struct {
	W     int32
	U, V  graph.VertexID
	C2    graph.VertexID
	Valid bool
}

type msfCandCodec struct{}

func (msfCandCodec) Encode(b *ser.Buffer, m msfCandMsg) {
	b.WriteUint32(uint32(m.W))
	b.WriteUint32(m.U)
	b.WriteUint32(m.V)
	b.WriteUint32(m.C2)
}

func (msfCandCodec) Decode(b *ser.Buffer) msfCandMsg {
	return msfCandMsg{W: int32(b.ReadUint32()), U: b.ReadUint32(), V: b.ReadUint32(), C2: b.ReadUint32(), Valid: true}
}

// msfCandLess is the total order on undirected candidate edges: weight,
// then the unordered endpoint pair. Both sides of a cut order its edges
// identically, which guarantees mutual pairs select the same edge.
func msfCandLess(a, b msfCandMsg) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	alo, ahi := a.U, a.V
	if alo > ahi {
		alo, ahi = ahi, alo
	}
	blo, bhi := b.U, b.V
	if blo > bhi {
		blo, bhi = bhi, blo
	}
	if alo != blo {
		return alo < blo
	}
	return ahi < bhi
}

func msfCandMin(a, b msfCandMsg) msfCandMsg {
	if !a.Valid {
		return b
	}
	if !b.Valid {
		return a
	}
	if msfCandLess(a, b) {
		return a
	}
	return b
}

// msfBcastMsg carries a sender's identity and component.
type msfBcastMsg struct {
	ID   graph.VertexID
	Comp graph.VertexID
}

type msfBcastCodec struct{}

func (msfBcastCodec) Encode(b *ser.Buffer, m msfBcastMsg) {
	b.WriteUint32(m.ID)
	b.WriteUint32(m.Comp)
}

func (msfBcastCodec) Decode(b *ser.Buffer) msfBcastMsg {
	return msfBcastMsg{ID: b.ReadUint32(), Comp: b.ReadUint32()}
}

// msfSaveCore appends the Boruvka vertex state shared by both engine
// variants to a checkpoint blob: the component forest, the pointer-chase
// cursor, the pending candidate edges, the accumulated neighbor
// components and the forest edges selected so far on this worker.
func msfSaveCore(buf *ser.Buffer, comp, cur, droot []graph.VertexID, pend []msfCandMsg, nbrComp []map[graph.VertexID]graph.VertexID, edges []graph.Edge) {
	ckpt.SaveSlice(buf, vidCodec, comp)
	ckpt.SaveSlice(buf, vidCodec, cur)
	ckpt.SaveSlice(buf, vidCodec, droot)
	buf.WriteUvarint(uint64(len(pend)))
	for _, p := range pend {
		buf.WriteBool(p.Valid)
		if p.Valid {
			buf.WriteVarint(int64(p.W))
			buf.WriteUint32(p.U)
			buf.WriteUint32(p.V)
			buf.WriteUint32(p.C2)
		}
	}
	buf.WriteUvarint(uint64(len(nbrComp)))
	for _, nc := range nbrComp {
		buf.WriteUvarint(uint64(len(nc)))
		for k, v := range nc {
			buf.WriteUint32(k)
			buf.WriteUint32(v)
		}
	}
	buf.WriteUvarint(uint64(len(edges)))
	for _, e := range edges {
		buf.WriteUint32(e.Src)
		buf.WriteUint32(e.Dst)
		buf.WriteVarint(int64(e.Weight))
	}
}

// msfLoadCore restores a blob written by msfSaveCore into the given
// slices and returns the worker's selected forest edges. Runs under the
// engine's restore recover: shape mismatches panic into worker errors.
func msfLoadCore(buf *ser.Buffer, comp, cur, droot []graph.VertexID, pend []msfCandMsg, nbrComp []map[graph.VertexID]graph.VertexID) []graph.Edge {
	ckpt.LoadSlice(buf, vidCodec, comp)
	ckpt.LoadSlice(buf, vidCodec, cur)
	ckpt.LoadSlice(buf, vidCodec, droot)
	if n := int(buf.ReadUvarint()); n != len(pend) {
		panic("algorithms: msf checkpoint candidate table does not match vertex count")
	}
	for i := range pend {
		pend[i] = msfCandMsg{}
		if buf.ReadBool() {
			pend[i] = msfCandMsg{W: int32(buf.ReadVarint()), U: buf.ReadUint32(), V: buf.ReadUint32(), C2: buf.ReadUint32(), Valid: true}
		}
	}
	if n := int(buf.ReadUvarint()); n != len(nbrComp) {
		panic("algorithms: msf checkpoint neighbor table does not match vertex count")
	}
	for i := range nbrComp {
		k := int(buf.ReadUvarint())
		if k == 0 {
			nbrComp[i] = nil
			continue
		}
		nc := make(map[graph.VertexID]graph.VertexID)
		for j := 0; j < k; j++ {
			key := buf.ReadUint32()
			nc[key] = buf.ReadUint32()
		}
		nbrComp[i] = nc
	}
	ne := int(buf.ReadUvarint())
	var edges []graph.Edge
	for j := 0; j < ne; j++ {
		edges = append(edges, graph.Edge{Src: buf.ReadUint32(), Dst: buf.ReadUint32(), Weight: int32(buf.ReadVarint())})
	}
	return edges
}

// msfChannel runs Boruvka MSF on the channel engine. The input must be
// an undirected weighted graph.
func msfChannel(g *graph.Graph, opts Options) (MSFResult, engine.Metrics, error) {
	part := opts.Part
	compStates := make([][]graph.VertexID, part.NumWorkers())
	edgeStates := make([][]graph.Edge, part.NumWorkers())
	met, err := engine.Run(withFrags(opts, g), func(w *engine.Worker) {
		f := w.Frag()
		n := w.LocalCount()
		comp := make([]graph.VertexID, n)
		cur := make([]graph.VertexID, n)
		droot := make([]graph.VertexID, n)
		pend := make([]msfCandMsg, n)
		nbrComp := make([]map[graph.VertexID]graph.VertexID, n)
		compStates[w.WorkerID()] = comp

		bcast := channel.NewDirectMessage[msfBcastMsg](w, msfBcastCodec{})
		cand := channel.NewCombinedMessage[msfCandMsg](w, msfCandCodec{}, channel.CombinerFunc(msfCandMin))
		rrD := channel.NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 {
			return droot[li]
		})
		rrJump := channel.NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 {
			return cur[li]
		})
		selAgg := channel.NewAggregator[int64](w, ser.Int64Codec{}, channel.Sum[int64](), 0)
		jumpAgg := channel.NewAggregator[int64](w, ser.Int64Codec{}, channel.Sum[int64](), 0)

		phase := msfBcast
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
			phase = msfPhase(buf.ReadUint8())
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
			enter := func(p msfPhase) { phase, phaseStart = p, step }
			switch phase {
			case msfBcast:
				if step > phaseStart {
					enter(msfCand)
				}
			case msfCand:
				enter(msfSelect)
			case msfSelect:
				enter(msfResolve)
				if selAgg.Result() == 0 {
					// no component found an outgoing edge: forest final
					stopping = true
					w.RequestStop()
				}
			case msfResolve:
				enter(msfJump)
			case msfJump:
				if step > phaseStart && jumpAgg.Result() == 0 {
					enter(msfBcast)
				}
			}
		}

		w.Compute = func(li int) {
			evalPhase()
			if stopping {
				w.VoteToHalt()
				return
			}
			id := f.GlobalID(li)
			step := w.Superstep()
			if step == 1 {
				comp[li] = id
				cur[li] = id
			}
			switch phase {
			case msfBcast:
				comp[li] = cur[li] // adopt the flattened pointer
				m := msfBcastMsg{ID: id, Comp: comp[li]}
				for _, a := range f.Neighbors(li) {
					bcast.Send(a, m)
				}
			case msfCand:
				// record neighbor components, pick the minimum crossing edge
				nc := nbrComp[li]
				if nc == nil {
					nc = make(map[graph.VertexID]graph.VertexID)
					nbrComp[li] = nc
				}
				for _, m := range bcast.Messages(li) {
					nc[m.ID] = m.Comp
				}
				best := msfCandMsg{}
				ws := g.NeighborWeights(id)
				for i, v := range g.Neighbors(id) {
					c2, ok := nc[v]
					if !ok || c2 == comp[li] {
						continue
					}
					c := msfCandMsg{W: ws[i], U: id, V: v, C2: c2, Valid: true}
					best = msfCandMin(best, c)
				}
				if best.Valid {
					cand.Send(w.Addr(comp[li]), best)
				}
			case msfSelect:
				// roots select their component's best candidate
				droot[li] = comp[li]
				pend[li].Valid = false
				if id == comp[li] {
					if c, ok := cand.Message(li); ok && c.Valid {
						droot[li] = c.C2
						pend[li] = c
						selAgg.Add(1)
						rrD.Request(w.Addr(c.C2))
					}
				}
			case msfResolve:
				if id == comp[li] && pend[li].Valid {
					gp, ok := rrD.Respond()
					countEdge := true
					if ok && graph.VertexID(gp) == id {
						// mutual pair: smaller id stays root and counts
						if id < droot[li] {
							droot[li] = id
							// edge counted by this side
						} else {
							countEdge = false
						}
					}
					if countEdge {
						e := graph.Edge{Src: pend[li].U, Dst: pend[li].V, Weight: pend[li].W}
						edgeStates[w.WorkerID()] = append(edgeStates[w.WorkerID()], e)
					}
				}
				// everyone initializes the pointer chase; a forest root
				// (cur[u] = u) has nothing to chase
				if id == comp[li] {
					cur[li] = droot[li]
				} else {
					cur[li] = comp[li]
				}
				if cur[li] != id {
					rrJump.Request(w.Addr(cur[li]))
				}
			case msfJump:
				if nc, ok := rrJump.Respond(); ok && graph.VertexID(nc) != cur[li] {
					cur[li] = nc
					jumpAgg.Add(1)
				}
				if cur[li] != id {
					rrJump.Request(w.Addr(cur[li]))
				}
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
