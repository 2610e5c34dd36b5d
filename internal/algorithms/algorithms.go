// Package algorithms implements the six algorithms of the paper's
// evaluation (§V): PageRank, Pointer-Jumping, WCC (HCC), the S-V
// connected-components algorithm, Min-Label SCC and Boruvka MSF — each
// in the channel-based engine (with the channel choices the paper
// studies) and in the baseline monolithic-message engine. SSSP is
// included as an additional example of the scatter/propagation channels.
//
// The registry (Lookup, then Spec.Run) is the only way to run a variant
// from outside the package: graphd, the graphworkers, the harness, the
// benchmarks and the examples all dispatch through it. Each variant
// assembles its per-vertex output into one global slice, returned in a
// Result next to the normalized Metrics.
package algorithms

import (
	"repro/internal/bsp"
	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/ser"
)

// gather assembles per-worker slices (indexed by local index) into one
// global slice indexed by vertex id.
func gather[T any](part *partition.Partition, states [][]T) []T {
	out := make([]T, part.NumVertices())
	for w := 0; w < part.NumWorkers(); w++ {
		for li, v := range states[w] {
			out[part.GlobalID(w, li)] = v
		}
	}
	return out
}

// orBool is the logical-or combiner used for convergence detection.
func orBool(a, b bool) bool { return a || b }

// haltRange votes every vertex of a range program's range to halt.
func haltRange(w *engine.Worker, lo, hi int) {
	for li := lo; li < hi; li++ {
		w.DeactivateLocal(li)
	}
}

// Options bundles the common run parameters of all algorithm variants:
// the driver's run environment, passed to whichever engine runs the job
// (the job service threads each job's cancellation, fabric, trace
// collector and checkpoint hook through it). Frags, when set, are the
// pre-resolved fragments of the input graph under Part, which the
// catalog and the harness build once per (dataset, workers, placement);
// unset, each run builds its own. A distributed Fabric may host only a
// subset of Part's workers in this process: the run then computes just
// those workers' vertices and the assembled result has only their
// entries filled — the coordinator merges partials by ownership.
type Options = bsp.Env

// withFrags returns opts with the fragments of g filled in, building
// them when the caller did not supply any.
func withFrags(opts Options, g *graph.Graph) Options {
	if opts.Frags == nil {
		opts.Frags = frag.Build(g, opts.Part)
	}
	return opts
}

// vidCodec encodes graph.VertexID values in checkpoint blobs (the wire
// codecs are typed over the raw integer widths).
var vidCodec = ser.FuncCodec[graph.VertexID]{
	Enc: func(buf *ser.Buffer, v graph.VertexID) { buf.WriteUint32(uint32(v)) },
	Dec: func(buf *ser.Buffer) graph.VertexID { return graph.VertexID(buf.ReadUint32()) },
}

// saveAddrLists appends a per-vertex list-of-addresses table (e.g. the
// SCC same-pair neighbor lists) to a checkpoint blob.
func saveAddrLists(buf *ser.Buffer, lists [][]frag.Addr) {
	buf.WriteUvarint(uint64(len(lists)))
	for _, lst := range lists {
		ckpt.SaveSlice(buf, ser.VarintCodec[frag.Addr]{}, lst)
	}
}

// loadAddrLists restores a table written by saveAddrLists, reusing the
// existing per-vertex list capacity. Runs under the engine's restore
// recover: shape mismatches panic into worker errors.
func loadAddrLists(buf *ser.Buffer, lists [][]frag.Addr) {
	if n := buf.ReadUvarint(); n != uint64(len(lists)) {
		panic("algorithms: checkpoint address table does not match vertex count")
	}
	for i := range lists {
		lists[i] = ckpt.AppendSlice(buf, ser.VarintCodec[frag.Addr]{}, lists[i][:0])
	}
}
