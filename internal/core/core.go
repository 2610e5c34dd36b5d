// Package core is the public face of the channel-based vertex-centric
// graph processing system — the paper's primary contribution. It bundles
// the BSP runtime (internal/engine) with the channel library
// (internal/channel) behind one import, so an application is written
// exactly the way the paper's Fig. 1 shows: create a worker setup
// function, allocate the channels matching the algorithm's
// communication patterns, and install a per-vertex Compute function.
//
// Standard channels (paper Table I):
//
//	NewDirectMessage    — point-to-point messages, iterator on receive
//	NewCombinedMessage  — messages combined per destination
//	NewAggregator       — global reduce, result next superstep
//
// Optimized channels (paper Table II):
//
//	NewScatterCombine   — static messaging pattern, destination-sorted plan
//	NewRequestRespond   — deduplicated request/ordered-reply conversation
//	NewPropagation      — in-superstep asynchronous label propagation
//
// Channels compose freely: a program registers any number of channels,
// which is how multiple optimizations coexist in one algorithm (the
// paper's S-V study, §III-C). See examples/ for runnable programs.
package core

import (
	"cmp"

	"repro/internal/channel"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/ser"
)

// Worker is the per-node runtime handle passed to setup functions.
type Worker = engine.Worker

// Config configures a job: the vertex partition, the simulated-network
// cost model, and a superstep cap.
type Config = engine.Config

// Metrics summarizes a finished run.
type Metrics = engine.Metrics

// CostModel maps communication volume to simulated network time.
type CostModel = comm.CostModel

// VertexID identifies a vertex.
type VertexID = graph.VertexID

// Combiner merges messages for the same destination; the operation must
// be commutative and associative. Sum and Min are the built-in ones,
// whose loops compile to a native add or compare; CombinerFunc wraps any
// other function.
type Combiner[M any] = channel.Combiner[M]

// Sum returns the addition combiner.
func Sum[M channel.Number]() Combiner[M] { return channel.Sum[M]() }

// Min returns the minimum combiner.
func Min[M cmp.Ordered]() Combiner[M] { return channel.Min[M]() }

// CombinerFunc adapts a plain function to a Combiner, for custom message
// types and operations.
func CombinerFunc[M any](f func(M, M) M) Combiner[M] { return channel.CombinerFunc(f) }

// Codec encodes message values for the wire.
type Codec[T any] = ser.Codec[T]

// Run executes a job: setup is invoked once per worker to register
// channels and install Compute; Run returns when no vertex is active,
// a worker requests a stop, or MaxSupersteps is exceeded.
func Run(cfg Config, setup func(w *Worker)) (Metrics, error) {
	return engine.Run(cfg, setup)
}

// HashPartition places vertex v on worker v mod numWorkers. It errors
// when numWorkers is outside 1..65535 (the uint16 owner representation).
func HashPartition(numVertices, numWorkers int) (*partition.Partition, error) {
	return partition.Hash(numVertices, numWorkers)
}

// GreedyPartition grows locality-preserving regions by BFS (the METIS
// stand-in used for the paper's partitioned datasets). It errors when
// numWorkers is outside 1..65534.
func GreedyPartition(g *graph.Graph, numWorkers int) (*partition.Partition, error) {
	return partition.Greedy(g, numWorkers)
}

// BuildFragments pre-resolves per-worker shared-nothing fragments of g
// under p; pass them via Config.Frags and iterate Worker.Frag().
func BuildFragments(g *graph.Graph, p *partition.Partition) *frag.Fragments {
	return frag.Build(g, p)
}

// NewDirectMessage creates a point-to-point message channel.
func NewDirectMessage[M any](w *Worker, codec Codec[M]) *channel.DirectMessage[M] {
	return channel.NewDirectMessage(w, codec)
}

// NewCombinedMessage creates a combining message channel.
func NewCombinedMessage[M any](w *Worker, codec Codec[M], combine Combiner[M]) *channel.CombinedMessage[M] {
	return channel.NewCombinedMessage(w, codec, combine)
}

// NewAggregator creates a global-reduce channel with identity zero.
func NewAggregator[M any](w *Worker, codec Codec[M], combine Combiner[M], zero M) *channel.Aggregator[M] {
	return channel.NewAggregator(w, codec, combine, zero)
}

// NewScatterCombine creates the static-messaging-pattern channel.
func NewScatterCombine[M any](w *Worker, codec Codec[M], combine Combiner[M]) *channel.ScatterCombine[M] {
	return channel.NewScatterCombine(w, codec, combine)
}

// NewRequestRespond creates the request-respond channel; respond maps a
// requested vertex's local index to its response value.
func NewRequestRespond[R any](w *Worker, codec Codec[R], respond func(li int) R) *channel.RequestRespond[R] {
	return channel.NewRequestRespond(w, codec, respond)
}

// NewMirror creates the mirroring extension channel: sender-side
// combining for vertices whose degree reaches threshold (Pregel+'s
// ghost mode as a composable channel).
func NewMirror[M any](w *Worker, codec Codec[M], combine Combiner[M], threshold int) *channel.Mirror[M] {
	return channel.NewMirror(w, codec, combine, threshold)
}

// NewPropagation creates the in-superstep propagation channel.
func NewPropagation[M comparable](w *Worker, codec Codec[M], combine Combiner[M]) *channel.Propagation[M] {
	return channel.NewPropagation(w, codec, combine)
}

// NewWeightedPropagation creates a propagation channel with an edge
// transform f(value, weight) applied when a value crosses an edge.
func NewWeightedPropagation[M comparable](w *Worker, codec Codec[M], combine Combiner[M], f func(m M, weight int32) M) *channel.Propagation[M] {
	return channel.NewWeightedPropagation(w, codec, combine, f)
}
