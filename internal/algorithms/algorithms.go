// Package algorithms implements the six algorithms of the paper's
// evaluation (§V): PageRank, Pointer-Jumping, WCC (HCC), the S-V
// connected-components algorithm, Min-Label SCC and Boruvka MSF — each
// in the channel-based engine (with the channel choices the paper
// studies) and in the baseline monolithic-message engine. SSSP is
// included as an additional example of the scatter/propagation channels.
//
// Every function returns the per-vertex result assembled into a global
// slice plus the engine metrics, so the harness can print the paper's
// table rows and the tests can compare against internal/seq oracles.
package algorithms

import (
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pregel"
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

// Options bundles the common run parameters of all algorithm variants.
type Options struct {
	Part *partition.Partition
	// Frags, if set, are the pre-resolved shared-nothing fragments of the
	// input graph under Part (the catalog and the harness build them once
	// per (dataset, workers, placement) and reuse them across runs).
	// Unset, each run builds its own.
	Frags *frag.Fragments
	// MaxSupersteps caps the run (0 = engine default).
	MaxSupersteps int
	// Cancel, if non-nil, aborts the run when closed (the job service
	// threads each job's cancellation channel through here); the run
	// returns barrier.ErrCancelled.
	Cancel <-chan struct{}
	// Fabric, if non-nil, is the transport the run's workers exchange
	// buffers and synchronize through (nil selects the in-process
	// zero-copy fabric). A distributed fabric may host only a subset of
	// Part's workers in this process: the run then computes just those
	// workers' vertices and the assembled result has only their entries
	// filled — the coordinator merges partials by ownership.
	Fabric comm.Fabric
	// Observer, if non-nil, receives one superstep sample per (worker,
	// superstep) from whichever engine runs the job (the job service
	// threads each job's trace collector through here, the same way
	// Cancel and Fabric travel). Nil disables collection.
	Observer obs.Observer
	// Checkpoint, if non-nil with a store, makes the run snapshot its
	// per-worker state at a configurable superstep interval and, when
	// Restore is set, resume from the saved superstep instead of from
	// scratch (the job service threads recovery through here, the same
	// way Cancel and Fabric travel). Every registered algorithm supplies
	// the Save/Restore closures for its own vertex state.
	Checkpoint *ckpt.Hook
}

// fragments returns the pre-resolved fragments of g, building them when
// the caller did not supply any.
func (o Options) fragments(g *graph.Graph) *frag.Fragments {
	if o.Frags != nil {
		return o.Frags
	}
	return frag.Build(g, o.Part)
}

// vidCodec encodes graph.VertexID values in checkpoint blobs (the wire
// codecs are typed over the raw integer widths).
var vidCodec = ser.FuncCodec[graph.VertexID]{
	Enc: func(buf *ser.Buffer, v graph.VertexID) { buf.WriteUint32(uint32(v)) },
	Dec: func(buf *ser.Buffer) graph.VertexID { return graph.VertexID(buf.ReadUint32()) },
}

// addrCodec encodes packed fragment addresses in checkpoint blobs.
var addrCodec = ser.FuncCodec[frag.Addr]{
	Enc: func(buf *ser.Buffer, a frag.Addr) { buf.WriteUvarint(uint64(a)) },
	Dec: func(buf *ser.Buffer) frag.Addr { return frag.Addr(buf.ReadUvarint()) },
}

// i32Codec encodes int32 counters in checkpoint blobs.
var i32Codec = ser.FuncCodec[int32]{
	Enc: func(buf *ser.Buffer, v int32) { buf.WriteVarint(int64(v)) },
	Dec: func(buf *ser.Buffer) int32 { return int32(buf.ReadVarint()) },
}

// saveAddrLists appends a per-vertex list-of-addresses table (e.g. the
// SCC same-pair neighbor lists) to a checkpoint blob.
func saveAddrLists(buf *ser.Buffer, lists [][]frag.Addr) {
	buf.WriteUvarint(uint64(len(lists)))
	for _, lst := range lists {
		ckpt.SaveSlice(buf, addrCodec, lst)
	}
}

// loadAddrLists restores a table written by saveAddrLists, reusing the
// existing per-vertex list capacity. Runs under the engine's restore
// recover: shape mismatches panic into worker errors.
func loadAddrLists(buf *ser.Buffer, lists [][]frag.Addr) {
	if n := int(buf.ReadUvarint()); n != len(lists) {
		panic("algorithms: checkpoint address table does not match vertex count")
	}
	for i := range lists {
		k := int(buf.ReadUvarint())
		lst := lists[i][:0]
		for j := 0; j < k; j++ {
			lst = append(lst, frag.Addr(buf.ReadUvarint()))
		}
		lists[i] = lst
	}
}

// ChannelMetrics is a light alias so callers do not import engine just
// for the metrics type.
type ChannelMetrics = engine.Metrics

// PregelMetrics aliases the baseline engine metrics.
type PregelMetrics = pregel.Metrics
