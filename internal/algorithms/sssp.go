package algorithms

import (
	"math"
	"repro/internal/ckpt"

	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ser"
)

// Single-source shortest paths on a non-negatively weighted directed
// graph. Unreachable vertices report math.MaxInt64.
//
//	SSSPChannel      — classic Pregel SSSP: min-combined distance
//	                   messages, one relaxation wave per superstep
//	SSSPPropagation  — the weighted Propagation channel relaxes to a
//	                   global fixpoint within one superstep (the full
//	                   Fig. 7 model with the edge transform f)

// SSSPChannel runs Bellman-Ford-style SSSP with a CombinedMessage
// channel.
func SSSPChannel(g *graph.Graph, src graph.VertexID, opts Options) ([]int64, engine.Metrics, error) {
	part := opts.Part
	states := make([][]int64, part.NumWorkers())
	met, err := engine.Run(engine.Config{Part: part, Frags: opts.fragments(g), MaxSupersteps: opts.MaxSupersteps, Cancel: opts.Cancel, Fabric: opts.Fabric, Observer: opts.Observer, Checkpoint: opts.Checkpoint}, func(w *engine.Worker) {
		f := w.Frag()
		dist := make([]int64, w.LocalCount())
		states[w.WorkerID()] = dist
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, ser.Int64Codec{}, dist) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, ser.Int64Codec{}, dist) },
		)
		msg := channel.NewCombinedMessage[int64](w, ser.Int64Codec{}, channel.Min[int64]())
		relax := func(li int) {
			ws := f.NeighborWeights(li)
			for i, a := range f.Neighbors(li) {
				msg.Send(a, dist[li]+int64(ws[i]))
			}
		}
		w.Compute = func(li int) {
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
			if m, ok := msg.Message(li); ok && m < dist[li] {
				dist[li] = m
				relax(li)
			}
			w.VoteToHalt()
		}
	})
	return gather(part, states), met, err
}

// SSSPPropagation runs SSSP on a weighted Propagation channel: the
// distance labels relax to the global fixpoint within superstep 1's
// exchange rounds.
func SSSPPropagation(g *graph.Graph, src graph.VertexID, opts Options) ([]int64, engine.Metrics, error) {
	part := opts.Part
	states := make([][]int64, part.NumWorkers())
	met, err := engine.Run(engine.Config{Part: part, Frags: opts.fragments(g), MaxSupersteps: opts.MaxSupersteps, Cancel: opts.Cancel, Fabric: opts.Fabric, Observer: opts.Observer, Checkpoint: opts.Checkpoint}, func(w *engine.Worker) {
		f := w.Frag()
		dist := make([]int64, w.LocalCount())
		states[w.WorkerID()] = dist
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, ser.Int64Codec{}, dist) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, ser.Int64Codec{}, dist) },
		)
		prop := channel.NewWeightedPropagation[int64](w, ser.Int64Codec{}, channel.Min[int64](),
			func(m int64, weight int32) int64 { return m + int64(weight) })
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				if li == 0 {
					prop.UseFragment(f) // weighted adjacency, registered once
				}
				if w.GlobalID(li) == src {
					prop.SetValue(0)
				}
				return
			}
			if v, ok := prop.Value(li); ok {
				dist[li] = v
			} else {
				dist[li] = math.MaxInt64
			}
			w.VoteToHalt()
		}
	})
	return gather(part, states), met, err
}
