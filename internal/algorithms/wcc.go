package algorithms

import (
	"repro/internal/channel"
	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/ser"
)

// Weakly Connected Components via the HCC algorithm (paper §V-B3,
// PEGASUS-style hash-min): every vertex starts with its own id as label
// and repeatedly adopts the minimum label among its neighbors, treating
// edges as undirected. The input graph must already store both
// orientations (use graph.Undirectify for directed inputs).
//
// Variants (Table V bottom):
//
//	wccChannel      — CombinedMessage with min combiner, one hop per superstep
//	wccPropagation  — Propagation channel: converges in one superstep's rounds
//	wccBlogel       — block-centric baseline: one cross-worker hop per superstep,
//	                  worker-local propagation in between (Blogel stand-in)
//	wccPregel       — baseline engine with min combiner

// wccChannel runs hash-min WCC with the standard CombinedMessage channel.
func wccChannel(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	met, err := engine.Run(withFrags(opts, g), func(w *engine.Worker) {
		f := w.Frag()
		label := make([]graph.VertexID, w.LocalCount())
		states[w.WorkerID()] = label
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, vidCodec, label) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, vidCodec, label) },
		)
		msg := channel.NewCombinedMessage[uint32](w, ser.Uint32Codec{}, channel.Min[uint32]())
		w.Compute = func(li int) {
			changed := false
			if w.Superstep() == 1 {
				label[li] = w.GlobalID(li)
				changed = true
			} else if m, ok := msg.Message(li); ok && m < label[li] {
				label[li] = m
				changed = true
			}
			if changed {
				for _, a := range f.Neighbors(li) {
					msg.Send(a, label[li])
				}
			}
			w.VoteToHalt()
		}
	})
	return gather(part, states), met, err
}

// wccPropagation runs WCC with the Propagation channel: superstep 1
// registers the adjacency and seeds every vertex with its id; the
// channel converges to the component minima within that superstep's
// exchange rounds, and superstep 2 reads the result.
func wccPropagation(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	met, err := engine.Run(withFrags(opts, g), func(w *engine.Worker) {
		f := w.Frag()
		label := make([]graph.VertexID, w.LocalCount())
		states[w.WorkerID()] = label
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, vidCodec, label) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, vidCodec, label) },
		)
		prop := channel.NewPropagation[uint32](w, ser.Uint32Codec{}, channel.Min[uint32]())
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				if li == 0 {
					prop.UseFragment(f) // whole adjacency, registered once
				}
				prop.SetValue(w.GlobalID(li))
				return
			}
			if v, ok := prop.Value(li); ok {
				label[li] = v
			}
			w.VoteToHalt()
		}
	})
	return gather(part, states), met, err
}

// wccBlogel runs WCC in the block-centric style of Blogel: labels cross
// worker boundaries once per superstep and propagate to quiescence
// inside each worker in between. Pair it with a locality partition
// (partition.Greedy) to reproduce the partitioned rows of Table V.
func wccBlogel(g *graph.Graph, opts Options) ([]graph.VertexID, engine.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	props := make([]*channel.Propagation[uint32], part.NumWorkers())
	met, err := engine.Run(withFrags(opts, g), func(w *engine.Worker) {
		f := w.Frag()
		label := make([]graph.VertexID, w.LocalCount())
		states[w.WorkerID()] = label
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, vidCodec, label) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, vidCodec, label) },
		)
		prop := channel.NewBlockPropagation[uint32](w, ser.Uint32Codec{}, channel.Min[uint32]())
		props[w.WorkerID()] = prop
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				if li == 0 {
					prop.UseFragment(f)
				}
				prop.SetValue(w.GlobalID(li))
			}
			w.VoteToHalt()
		}
	})
	// Collect final labels from the channels (block-centric values are
	// read post-run; convergence is the engine's termination).
	for wk := 0; wk < part.NumWorkers(); wk++ {
		for li := range states[wk] {
			if v, ok := props[wk].RawValue(li); ok {
				states[wk][li] = v
			}
		}
	}
	return gather(part, states), met, err
}

// wccPregel runs hash-min WCC on the baseline engine with the global
// min combiner.
func wccPregel(g *graph.Graph, opts Options) ([]graph.VertexID, pregel.Metrics, error) {
	part := opts.Part
	states := make([][]graph.VertexID, part.NumWorkers())
	cfg := pregel.Config[uint32, struct{}, struct{}]{
		Env:      withFrags(opts, g),
		MsgCodec: ser.Uint32Codec{},
		Combiner: channel.Min[uint32]().Combine,
	}
	met, err := pregel.Run(cfg, func(w *pregel.Worker[uint32, struct{}, struct{}]) {
		f := w.Frag()
		label := make([]graph.VertexID, w.LocalCount())
		states[w.WorkerID()] = label
		w.Checkpoint(
			func(buf *ser.Buffer) { ckpt.SaveSlice(buf, vidCodec, label) },
			func(buf *ser.Buffer) { ckpt.LoadSlice(buf, vidCodec, label) },
		)
		w.Compute = func(li int, msgs []uint32) {
			changed := false
			if w.Superstep() == 1 {
				label[li] = w.GlobalID(li)
				changed = true
			} else {
				for _, m := range msgs {
					if m < label[li] {
						label[li] = m
						changed = true
					}
				}
			}
			if changed {
				for _, a := range f.Neighbors(li) {
					w.SendAddr(a, label[li])
				}
			}
			w.VoteToHalt()
		}
	})
	return gather(part, states), met, err
}
