package bsp

import "repro/internal/ser"

// Aggregator is the global reduction of the paper's Table I, computed
// at the superstep barrier as Pregel computes it: vertices Add values
// during a superstep, and every vertex reads the reduced value, Result,
// in the next one. Both engines' aggregators are this one.
//
// It costs neither a frame nor an exchange round. After compute the
// driver encodes the partials of every aggregator the worker
// registered, in registration order, into one post; round 1's
// post-flush crossing gathers every worker's post (barrier.Gather), and
// each worker folds them with the combiner in worker order, so every
// worker computes the same result bit for bit whatever the combiner's
// associativity. A worker that added nothing to any aggregator posts
// "absent".
type Aggregator[A any] struct {
	codec   ser.Codec[A]
	combine func(a, b A) A
	zero    A

	curr    A // this worker's partial of the superstep
	currSet bool
	gath    A // the posts folded so far, in worker order
	gathSet bool
	result  A // the previous superstep's aggregate
}

// NewAggregator creates an aggregator and registers it on c; every
// worker must register the same aggregators in the same order, during
// setup. zero is the identity of combine and the result of a superstep
// in which no worker added.
func NewAggregator[A any](c *Core, codec ser.Codec[A], combine func(a, b A) A, zero A) *Aggregator[A] {
	a := &Aggregator[A]{codec: codec, combine: combine, zero: zero, curr: zero, gath: zero, result: zero}
	c.aggs = append(c.aggs, a)
	return a
}

// Add contributes v to the aggregation of the current superstep.
func (a *Aggregator[A]) Add(v A) {
	if a.currSet {
		v = a.combine(a.curr, v)
	}
	a.curr, a.currSet = v, true
}

// Result returns the aggregate of the values added in the previous
// superstep, or zero if none was.
func (a *Aggregator[A]) Result() A { return a.result }

// aggregator is an Aggregator as the driver sees it, whatever its type.
type aggregator interface {
	// post appends the partial's presence and value to buf, reports
	// whether there was one, and starts the next superstep's partial.
	post(buf *ser.Buffer) bool
	// absorb folds the next post's part, read off in.
	absorb(in *ser.Buffer)
	// publish makes the folded posts the result, starts the next fold
	// and appends the result's encoding to buf, which is what the
	// driver charges for sending it back down.
	publish(buf *ser.Buffer)
}

func (a *Aggregator[A]) post(buf *ser.Buffer) bool {
	buf.WriteBool(a.currSet)
	if !a.currSet {
		return false
	}
	a.codec.Encode(buf, a.curr)
	a.curr, a.currSet = a.zero, false
	return true
}

func (a *Aggregator[A]) absorb(in *ser.Buffer) {
	if !in.ReadBool() {
		return
	}
	v := a.codec.Decode(in)
	if a.gathSet {
		v = a.combine(a.gath, v)
	}
	a.gath, a.gathSet = v, true
}

func (a *Aggregator[A]) publish(buf *ser.Buffer) {
	a.result = a.gath
	a.gath, a.gathSet = a.zero, false
	a.codec.Encode(buf, a.result)
}

// encodePost writes this worker's post of the superstep: nil when no
// aggregator has a partial, or when the job registered none.
func (c *Core) encodePost() {
	c.post = nil
	if len(c.aggs) == 0 {
		return
	}
	c.postBuf.Reset()
	some := false
	for _, a := range c.aggs {
		some = a.post(&c.postBuf) || some
	}
	if some {
		c.post = c.postBuf.Bytes()
	}
}

// gather is round 1's post-flush crossing of a job with aggregators:
// it posts this worker's partials, folds every worker's in worker order
// and publishes the results for the next superstep. With more than one
// worker, the worker is charged its post up and the results' encoding
// down — what a reduction through one master would send — in NetBytes,
// the round's modeled volume and the sample's sent and received bytes
// (it is both), but not in the flow matrix, which holds the round
// buffers.
func (c *Core) gather() (bool, error) {
	posts, ok := c.timedGather()
	if !ok {
		return false, nil
	}
	for src, post := range posts {
		if post == nil {
			continue
		}
		in := ser.FromBytes(post)
		if perr := ser.Decode(func() {
			for _, a := range c.aggs {
				a.absorb(in)
			}
		}); perr != nil {
			return true, c.errorf("corrupt aggregator post from worker %d: %v", src, perr)
		}
		if in.Remaining() != 0 {
			return true, c.errorf("%d trailing bytes in the aggregator post of worker %d", in.Remaining(), src)
		}
	}
	down := &c.aggScratch
	down.Reset()
	for _, a := range c.aggs {
		a.publish(down)
	}
	if c.NumWorkers() > 1 {
		charge := int64(len(c.post) + down.Len())
		c.netBytes += charge
		c.roundNet[len(c.roundNet)-1] += charge
		if c.obsOn {
			c.smp.BytesSent += charge
			c.smp.BytesRecv += charge
		}
	}
	return true, nil
}
