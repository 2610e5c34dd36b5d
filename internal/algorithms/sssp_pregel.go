package algorithms

import (
	"math"

	"repro/internal/channel"
	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/ser"
)

// ssspPregel runs Bellman-Ford-style SSSP on the baseline engine with
// the global min combiner — the Pregel counterpart of ssspChannel, so
// the registry exposes SSSP on both engines.
func ssspPregel(g *graph.Graph, src graph.VertexID, opts Options) ([]int64, pregel.Metrics, error) {
	part := opts.Part
	states := make([][]int64, part.NumWorkers())
	cfg := pregel.Config[int64, struct{}, struct{}]{
		Env:      withFrags(opts, g),
		MsgCodec: ser.Int64Codec{},
		Combiner: channel.Min[int64]().Combine,
	}
	met, err := pregel.Run(cfg, func(w *pregel.Worker[int64, struct{}, struct{}]) {
		f := w.Frag()
		dist := make([]int64, w.LocalCount())
		states[w.WorkerID()] = dist
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, ser.Int64Codec{}, dist) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, ser.Int64Codec{}, dist) },
		)
		relax := func(li int) {
			ws := f.NeighborWeights(li)
			for i, a := range f.Neighbors(li) {
				w.SendAddr(a, dist[li]+int64(ws[i]))
			}
		}
		w.Compute = func(li int, msgs []int64) {
			if w.Superstep() == 1 {
				if w.GlobalID(li) == src {
					dist[li] = 0
					relax(li)
				} else {
					dist[li] = math.MaxInt64
				}
				w.VoteToHalt()
				return
			}
			best := dist[li]
			for _, m := range msgs {
				if m < best {
					best = m
				}
			}
			if best < dist[li] {
				dist[li] = best
				relax(li)
			}
			w.VoteToHalt()
		}
	})
	return gather(part, states), met, err
}
