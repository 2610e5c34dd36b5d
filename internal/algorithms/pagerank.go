package algorithms

import (
	"repro/internal/channel"
	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/ser"
)

// PageRank reproduces the paper's running example (Fig. 1): `iterations`
// rounds of the 0.85-damped update with a sink-mass aggregator for dead
// ends. Four variants are provided, matching Table V (top):
//
//	pageRankChannel        — CombinedMessage + Aggregator (Fig. 1 verbatim)
//	pageRankScatter        — ScatterCombine + Aggregator (the 5-line change of §III-B)
//	pageRankPregel         — baseline engine, sum combiner
//	pageRankPregelGhost    — baseline engine, ghost/mirroring mode

// Both channel-engine variants compute in range form: every vertex
// is active until the last superstep, so the worker's whole range is one
// call per superstep — a rank pass that reads the inbox, then a scatter
// pass (Ligra's vertexMap in dense mode). Each pass runs in ascending
// local index, so every sum rounds as the per-vertex form's did.

// pageRankChannel runs PageRank on the channel engine with the standard
// CombinedMessage channel, exactly as in Fig. 1 of the paper.
func pageRankChannel(g *graph.Graph, opts Options, iterations int) ([]float64, engine.Metrics, error) {
	part := opts.Part
	states := make([][]float64, part.NumWorkers())
	met, err := engine.Run(withFrags(opts, g), func(w *engine.Worker) {
		f := w.Frag()
		pr := make([]float64, w.LocalCount())
		states[w.WorkerID()] = pr
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, ser.Float64Codec{}, pr) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, ser.Float64Codec{}, pr) },
		)
		msg := channel.NewCombinedMessage[float64](w, ser.Float64Codec{}, channel.Sum[float64]())
		agg := channel.NewAggregator[float64](w, ser.Float64Codec{}, channel.Sum[float64](), 0)
		n := float64(w.NumVertices())
		teleport := 0.15 / n
		w.ComputeRange = func(lo, hi int) {
			if w.Superstep() == 1 {
				for li := lo; li < hi; li++ {
					pr[li] = 1.0 / n
				}
			} else {
				s := agg.Result() / n
				for li := lo; li < hi; li++ {
					sum, _ := msg.Message(li)
					pr[li] = teleport + 0.85*(sum+s)
				}
			}
			if w.Superstep() > iterations {
				haltRange(w, lo, hi)
				return
			}
			var sink sinkMass
			for li := lo; li < hi; li++ {
				nbrs := f.Neighbors(li)
				if len(nbrs) == 0 {
					sink.add(pr[li])
					continue
				}
				share := pr[li] / float64(len(nbrs))
				for _, a := range nbrs {
					msg.Send(a, share)
				}
			}
			sink.flush(agg)
		}
	})
	return gather(part, states), met, err
}

// pageRankScatter is pageRankChannel with the message channel swapped
// for a ScatterCombine channel — the static messaging pattern
// optimization of §IV-C1. The shares go straight into the channel's
// source values.
func pageRankScatter(g *graph.Graph, opts Options, iterations int) ([]float64, engine.Metrics, error) {
	part := opts.Part
	states := make([][]float64, part.NumWorkers())
	met, err := engine.Run(withFrags(opts, g), func(w *engine.Worker) {
		f := w.Frag()
		pr := make([]float64, w.LocalCount())
		states[w.WorkerID()] = pr
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, ser.Float64Codec{}, pr) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, ser.Float64Codec{}, pr) },
		)
		msg := channel.NewScatterCombine[float64](w, ser.Float64Codec{}, channel.Sum[float64]())
		msg.UseFragment(f)
		agg := channel.NewAggregator[float64](w, ser.Float64Codec{}, channel.Sum[float64](), 0)
		n := float64(w.NumVertices())
		teleport := 0.15 / n
		w.ComputeRange = func(lo, hi int) {
			if w.Superstep() == 1 {
				for li := lo; li < hi; li++ {
					pr[li] = 1.0 / n
				}
			} else {
				s := agg.Result() / n
				for li := lo; li < hi; li++ {
					sum, _ := msg.Message(li)
					pr[li] = teleport + 0.85*(sum+s)
				}
			}
			if w.Superstep() > iterations {
				haltRange(w, lo, hi)
				return
			}
			var sink sinkMass
			share := msg.Values()
			for li := lo; li < hi; li++ {
				if deg := f.OutDegree(li); deg > 0 {
					share[li] = pr[li] / float64(deg)
				} else {
					sink.add(pr[li])
				}
			}
			sink.flush(agg)
		}
	})
	return gather(part, states), met, err
}

// sinkMass folds the ranks of a range's dead ends in ascending local
// index — the order per-vertex Aggregator.Add calls would combine them
// in — and hands the fold over in one Add, so the aggregator sees the
// same sum bit for bit. A range without dead ends adds nothing, and the
// worker posts "absent" at the gather.
type sinkMass struct {
	sum  float64
	some bool
}

func (s *sinkMass) add(r float64) {
	if s.some {
		s.sum += r
	} else {
		s.sum, s.some = r, true
	}
}

func (s *sinkMass) flush(agg *channel.Aggregator[float64]) {
	if s.some {
		agg.Add(s.sum)
	}
}

// pageRankPregel runs PageRank on the baseline engine (Pregel+ basic
// with the sum combiner).
func pageRankPregel(g *graph.Graph, opts Options, iterations int) ([]float64, pregel.Metrics, error) {
	return pageRankPregelThreshold(g, opts, iterations, 0)
}

// pageRankPregelGhost runs PageRank on the baseline engine in ghost
// (mirroring) mode with the paper's threshold of 16.
func pageRankPregelGhost(g *graph.Graph, opts Options, iterations int) ([]float64, pregel.Metrics, error) {
	return pageRankPregelThreshold(g, opts, iterations, 16)
}

func pageRankPregelThreshold(g *graph.Graph, opts Options, iterations, ghostThreshold int) ([]float64, pregel.Metrics, error) {
	part := opts.Part
	states := make([][]float64, part.NumWorkers())
	cfg := pregel.Config[float64, struct{}, float64]{
		Env:            withFrags(opts, g),
		MsgCodec:       ser.Float64Codec{},
		Combiner:       channel.Sum[float64]().Combine,
		AggCombine:     channel.Sum[float64]().Combine,
		AggCodec:       ser.Float64Codec{},
		GhostThreshold: ghostThreshold,
	}
	met, err := pregel.Run(cfg, func(w *pregel.Worker[float64, struct{}, float64]) {
		f := w.Frag()
		pr := make([]float64, w.LocalCount())
		states[w.WorkerID()] = pr
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, ser.Float64Codec{}, pr) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, ser.Float64Codec{}, pr) },
		)
		n := float64(w.NumVertices())
		w.Compute = func(li int, msgs []float64) {
			if w.Superstep() == 1 {
				pr[li] = 1.0 / n
			} else {
				s := w.AggResult() / n
				sum := 0.0
				for _, m := range msgs {
					sum += m
				}
				pr[li] = 0.15/n + 0.85*(sum+s)
			}
			if w.Superstep() <= iterations {
				deg := f.OutDegree(li)
				if deg > 0 {
					share := pr[li] / float64(deg)
					if ghostThreshold > 0 {
						w.SendToNbrs(share)
					} else {
						for _, a := range f.Neighbors(li) {
							w.SendAddr(a, share)
						}
					}
				} else {
					w.Aggregate(pr[li])
				}
			} else {
				w.VoteToHalt()
			}
		}
	})
	return gather(part, states), met, err
}
