package channel

import (
	"repro/internal/bsp"
	"repro/internal/engine"
	"repro/internal/ser"
)

// Aggregator is the global-communication channel of paper Table I,
// right column: vertices add values during a superstep, the values are
// reduced with the combiner, and the global result is readable by every
// vertex in the next superstep. It is the superstep driver's aggregator
// (bsp.Aggregator), not an exchange channel: it has no channel id and
// sends no frame, and its partials ride round 1's barrier crossing.
type Aggregator[M any] = bsp.Aggregator[M]

// NewAggregator creates an Aggregator and registers it on w. zero is
// the identity of combine and is the result when no vertex adds a
// value.
func NewAggregator[M any](w *engine.Worker, codec ser.Codec[M], combine Combiner[M], zero M) *Aggregator[M] {
	return bsp.NewAggregator(&w.Core, codec, combine.Combine, zero)
}
