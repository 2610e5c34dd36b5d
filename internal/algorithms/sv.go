package algorithms

import (
	"repro/internal/channel"
	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ser"
)

// The Shiloach-Vishkin (S-V) connected-components algorithm — the
// paper's central composition example (§III-C, Table VI). Every vertex u
// maintains a pointer D[u] into a distributed disjoint-set forest; each
// iteration either merges trees along crossing edges or halves pointer
// depth by jumping, until D stabilizes. Three communication patterns
// coexist:
//
//  1. fetching D[D[u]] — a request-respond conversation (load imbalance
//     at high-degree parents);
//  2. the neighborhood minimum of D over Nbr[u] — a static broadcast
//     (heavy neighborhood communication);
//  3. the conditional update of the root's pointer — min-combinable
//     messages (congestion at high-degree roots).
//
// Choosing a channel per pattern yields the four channel variants the
// paper measures, plus the two Pregel+ baselines:
//
//	svChannel        — all standard channels (program 2 of Table VI)
//	svReqResp        — RequestRespond for pattern 1 (program 3)
//	svScatter        — ScatterCombine for pattern 2 (program 4)
//	svBoth           — both optimized channels composed (program 5)
//	svPregel         — monolithic baseline, tagged messages, no combiner
//	svPregelReqResp  — baseline in reqresp mode (program 1)
//
// The input graph must be undirected (both orientations stored).

// svChannelVariant implements the four channel-engine variants.
// Iteration schedule (3 supersteps per iteration when fetching D[D[u]]
// through the RequestRespond channel, 4 with standard channels):
//
//	A: broadcast D[u] to neighbors; issue the grandparent fetch
//	(B': with standard channels, parents answer pending fetches)
//	B: read t = min neighbor D and gp = D[D[u]]; tree-merge or jump
//	C: roots apply the minimum merge target; convergence aggregator
func svChannelVariant(g *graph.Graph, opts Options, useReqResp, useScatter bool) ([]graph.VertexID, engine.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	met, err := engine.Run(withFrags(opts, g), func(w *engine.Worker) {
		f := w.Frag()
		n := w.LocalCount()
		d := make([]graph.VertexID, n)
		tmin := make([]graph.VertexID, n) // neighborhood minimum, buffered A->B
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

		// pattern 2: neighborhood broadcast
		var bcastCM *channel.CombinedMessage[uint32]
		var bcastSC *channel.ScatterCombine[uint32]
		if useScatter {
			bcastSC = channel.NewScatterCombine[uint32](w, ser.Uint32Codec{}, channel.Min[uint32]())
			bcastSC.UseFragment(f)
		} else {
			bcastCM = channel.NewCombinedMessage[uint32](w, ser.Uint32Codec{}, channel.Min[uint32]())
		}
		// pattern 1: grandparent fetch
		var rr *channel.RequestRespond[uint32]
		var reqCh, repCh *channel.DirectMessage[uint32]
		if useReqResp {
			rr = channel.NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 {
				return d[li]
			})
		} else {
			reqCh = channel.NewDirectMessage[uint32](w, ser.Uint32Codec{})
			repCh = channel.NewDirectMessage[uint32](w, ser.Uint32Codec{})
		}
		// pattern 3: root update
		mc := channel.NewCombinedMessage[uint32](w, ser.Uint32Codec{}, channel.Min[uint32]())
		// convergence detection
		agg := channel.NewAggregator[bool](w, ser.BoolCodec{}, channel.CombinerFunc(orBool), false)

		period := 3
		if !useReqResp {
			period = 4
		}
		// C: roots apply merge minima; the worker reports whether any
		// vertex changed this iteration
		applyMerges := func(lo, hi int) {
			anyChanged := false
			for li := lo; li < hi; li++ {
				if t, ok := mc.Message(li); ok && t < d[li] {
					d[li] = t
					changed[li] = true
				}
				anyChanged = anyChanged || changed[li]
				changed[li] = false
			}
			if hi > lo {
				agg.Add(anyChanged)
			}
		}

		// Every vertex works in every superstep, so the program takes the
		// worker's whole range: the phase is chosen once per superstep.
		w.ComputeRange = func(lo, hi int) {
			step := w.Superstep()
			if step == 1 {
				for li := lo; li < hi; li++ {
					d[li] = w.GlobalID(li)
				}
			}
			switch (step - 1) % period {
			case 0: // A
				if step > 1 && !agg.Result() {
					// previous iteration changed nothing anywhere: done
					haltRange(w, lo, hi)
					w.RequestStop()
					return
				}
				if useScatter {
					copy(bcastSC.Values()[lo:hi], d[lo:hi])
				} else {
					for li := lo; li < hi; li++ {
						for _, a := range f.Neighbors(li) {
							bcastCM.Send(a, d[li])
						}
					}
				}
				for li := lo; li < hi; li++ {
					w.SetCurrent(li)
					if useReqResp {
						rr.Request(w.Addr(d[li]))
					} else {
						reqCh.Send(w.Addr(d[li]), w.GlobalID(li))
					}
				}
			case 1:
				if useReqResp {
					// B: full merge/jump decision
					for li := lo; li < hi; li++ {
						w.SetCurrent(li)
						gp, _ := rr.Respond()
						t, hasT := svNeighborMin(bcastSC, bcastCM, li)
						svDecide(w, li, d, changed, gp, t, hasT, mc)
					}
				} else {
					// B': serve grandparent fetches; buffer the
					// neighborhood minimum for the next step
					for li := lo; li < hi; li++ {
						for _, requester := range reqCh.Messages(li) {
							repCh.Send(w.Addr(requester), d[li])
						}
						if t, ok := svNeighborMin(bcastSC, bcastCM, li); ok {
							tmin[li] = t
						} else {
							tmin[li] = uint32(0xFFFFFFFF)
						}
					}
				}
			case 2:
				if useReqResp {
					applyMerges(lo, hi)
				} else {
					// B: consume the reply and decide
					for li := lo; li < hi; li++ {
						gp := d[li]
						for _, v := range repCh.Messages(li) {
							gp = v
						}
						t := tmin[li]
						svDecide(w, li, d, changed, gp, t, t != 0xFFFFFFFF, mc)
					}
				}
			case 3: // C for the 4-step schedule
				applyMerges(lo, hi)
			}
		}
	})
	return gather(part, states), met, err
}

// svNeighborMin reads the neighborhood minimum delivered to li from
// whichever broadcast channel the variant registered (sc is nil with
// standard channels).
func svNeighborMin(sc *channel.ScatterCombine[uint32], cm *channel.CombinedMessage[uint32], li int) (uint32, bool) {
	if sc != nil {
		return sc.Message(li)
	}
	return cm.Message(li)
}

// svDecide performs the per-vertex merge-or-jump step of S-V given the
// grandparent value gp = D[D[u]] and the neighborhood minimum t.
func svDecide(w *engine.Worker, li int, d []graph.VertexID, changed []bool, gp uint32, t uint32, hasT bool, mc *channel.CombinedMessage[uint32]) {
	if gp == d[li] {
		// parent is a root: tree merging
		if hasT && t < d[li] {
			mc.Send(w.Addr(d[li]), t)
		}
	} else {
		// pointer jumping
		d[li] = gp
		changed[li] = true
	}
}

// svChannel runs S-V with standard channels only.
func svChannel(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	return svChannelVariant(g, opts, false, false)
}

// svReqResp runs S-V with the RequestRespond channel for the
// grandparent fetch.
func svReqResp(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	return svChannelVariant(g, opts, true, false)
}

// svScatter runs S-V with the ScatterCombine channel for the
// neighborhood broadcast.
func svScatter(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	return svChannelVariant(g, opts, false, true)
}

// svBoth composes both optimized channels — the paper's headline
// configuration (program 5 of Table VI).
func svBoth(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	return svChannelVariant(g, opts, true, true)
}
