package channel

import (
	"repro/internal/engine"
	"repro/internal/ser"
)

// Aggregator is the global-communication channel (paper Table I, right
// column): vertices add values during a superstep, the values are
// reduced with the combiner, and the global result is readable by every
// vertex in the next superstep.
//
// It takes one exchange round: every worker sends its partial to every
// worker and each reduces what it receives in source-worker order, so
// all workers compute the same result bit for bit, whatever the
// combiner's associativity.
type Aggregator[M any] struct {
	codec   ser.Codec[M]
	combine Combiner[M]
	zero    M

	curr    M    // partial being accumulated by this worker's vertices
	currSet bool // any Add this superstep
	result  M    // global result of the previous superstep
	// partials received this superstep, reduced in arrival (= source) order
	gathered    M
	gatheredSet bool
}

// NewAggregator creates and registers an Aggregator channel. zero is the
// identity of combine and is the result when no vertex adds a value.
func NewAggregator[M any](w *engine.Worker, codec ser.Codec[M], combine Combiner[M], zero M) *Aggregator[M] {
	c := &Aggregator[M]{codec: codec, combine: combine, zero: zero, curr: zero, result: zero, gathered: zero}
	w.Register(c)
	return c
}

// Add contributes v to the aggregation of the current superstep.
func (c *Aggregator[M]) Add(v M) {
	if c.currSet {
		c.curr = c.combine.Combine(c.curr, v)
	} else {
		c.curr = v
		c.currSet = true
	}
}

// Result returns the aggregate of all values added in the previous
// superstep (zero if none).
func (c *Aggregator[M]) Result() M { return c.result }

// Initialize implements engine.Channel.
func (c *Aggregator[M]) Initialize() {}

// AfterCompute implements engine.Channel.
func (c *Aggregator[M]) AfterCompute() {
	c.gathered = c.zero
	c.gatheredSet = false
}

// Serialize implements engine.Channel: the partial goes to every worker
// (loopback included).
func (c *Aggregator[M]) Serialize(dst int, buf *ser.Buffer) {
	if c.currSet {
		c.codec.Encode(buf, c.curr)
	}
}

// Deserialize implements engine.Channel.
func (c *Aggregator[M]) Deserialize(src int, buf *ser.Buffer) {
	v := c.codec.Decode(buf)
	if c.gatheredSet {
		c.gathered = c.combine.Combine(c.gathered, v)
	} else {
		c.gathered = v
		c.gatheredSet = true
	}
}

// Again implements engine.Channel: the superstep's first round
// delivered every partial, so publish the result and reset the partial.
// Later rounds (requested by other channels) deliver nothing more and
// republish the same value.
func (c *Aggregator[M]) Again() bool {
	c.result = c.gathered
	c.curr = c.zero
	c.currSet = false
	return false
}
