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
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				pr[li] = 1.0 / n
			} else {
				s := agg.Result() / n
				sum, _ := msg.Message(li)
				pr[li] = 0.15/n + 0.85*(sum+s)
			}
			if w.Superstep() <= iterations {
				nbrs := f.Neighbors(li)
				if len(nbrs) > 0 {
					share := pr[li] / float64(len(nbrs))
					for _, a := range nbrs {
						msg.Send(a, share)
					}
				} else {
					agg.Add(pr[li])
				}
			} else {
				w.VoteToHalt()
			}
		}
	})
	return gather(part, states), met, err
}

// pageRankScatter is pageRankChannel with the message channel swapped
// for a ScatterCombine channel — the static messaging pattern
// optimization of §IV-C1.
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
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				pr[li] = 1.0 / n
			} else {
				s := agg.Result() / n
				sum, _ := msg.Message(li)
				pr[li] = 0.15/n + 0.85*(sum+s)
			}
			if w.Superstep() <= iterations {
				deg := f.OutDegree(li)
				if deg > 0 {
					msg.SetMessage(pr[li] / float64(deg))
				} else {
					agg.Add(pr[li])
				}
			} else {
				w.VoteToHalt()
			}
		}
	})
	return gather(part, states), met, err
}

// pageRankMirror runs PageRank with the Mirror extension channel
// (sender-side combining for hubs, threshold 16) — ghost mode as a
// composable channel rather than an engine switch.
func pageRankMirror(g *graph.Graph, opts Options, iterations int) ([]float64, engine.Metrics, error) {
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
		msg := channel.NewMirror[float64](w, ser.Float64Codec{}, channel.Sum[float64](), 16)
		agg := channel.NewAggregator[float64](w, ser.Float64Codec{}, channel.Sum[float64](), 0)
		n := float64(w.NumVertices())
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				pr[li] = 1.0 / n
				for _, a := range f.Neighbors(li) {
					msg.AddAddr(a)
				}
			} else {
				s := agg.Result() / n
				sum, _ := msg.Message(li)
				pr[li] = 0.15/n + 0.85*(sum+s)
			}
			if w.Superstep() <= iterations {
				deg := f.OutDegree(li)
				if deg > 0 {
					msg.SetMessage(pr[li] / float64(deg))
				} else {
					agg.Add(pr[li])
				}
			} else {
				w.VoteToHalt()
			}
		}
	})
	return gather(part, states), met, err
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
