package bsp

import (
	"repro/internal/comm"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ser"
)

// Core is the per-worker state the driver owns, embedded in both
// engines' Worker types: identity, placement, the active set, the
// superstep and round counters, the stop request and the checkpoint
// closures. Its methods are the part of the Worker API both engines
// share.
type Core struct {
	id   int
	part *partition.Partition
	frag *frag.Fragment
	ep   comm.Endpoint
	job  *job
	prog Program

	active      []bool
	activeCount int
	current     int
	superstep   int
	round       int
	halt        bool // RequestStop was called on this worker

	// the aggregators registered on this worker (NewAggregator), this
	// superstep's post of their partials (nil: absent; it aliases
	// postBuf and stays untouched until the next superstep's compute)
	// and the scratch their results are encoded into for the charge
	aggs       []aggregator
	post       []byte
	postBuf    ser.Buffer
	aggScratch ser.Buffer

	// checkpoint closures (Worker.Checkpoint)
	ckptSave    func(buf *ser.Buffer)
	ckptRestore func(buf *ser.Buffer)

	// traffic this worker flushed: bytes to other workers and to itself,
	// and the off-worker bytes of each round (Core.count)
	netBytes, localBytes int64
	roundNet             []int64

	// superstep trace collection (Env.Observer); obsOn gates every trace
	// statement so the disabled path costs one branch per phase.
	obsOn bool
	smp   obs.SuperstepSample
}

func (c *Core) core() *Core { return c }

// WorkerID returns this worker's id in [0, NumWorkers).
func (c *Core) WorkerID() int { return c.id }

// NumWorkers returns the number of workers in the job.
func (c *Core) NumWorkers() int { return c.part.NumWorkers() }

// NumVertices returns the total number of vertices in the graph.
func (c *Core) NumVertices() int { return c.part.NumVertices() }

// LocalCount returns the number of vertices owned by this worker.
func (c *Core) LocalCount() int { return c.part.LocalCount(c.id) }

// GlobalID returns the vertex id at local index li.
func (c *Core) GlobalID(li int) graph.VertexID { return c.part.GlobalID(c.id, li) }

// Addr returns v's packed pre-resolved address. Use it to resolve
// occasional dynamic destinations (e.g. a pointer fetched from a
// message); static adjacency comes pre-resolved from Frag().
func (c *Core) Addr(v graph.VertexID) frag.Addr { return frag.Of(c.part, v) }

// Frag returns this worker's shared-nothing fragment, or nil when the
// job was configured without fragments.
func (c *Core) Frag() *frag.Fragment { return c.frag }

// Part returns the partition.
func (c *Core) Part() *partition.Partition { return c.part }

// Superstep returns the current superstep number, starting at 1
// (paper: step_num()).
func (c *Core) Superstep() int { return c.superstep }

// Round returns the exchange round in progress, starting at 1.
func (c *Core) Round() int { return c.round }

// CurrentLocal returns the local index of the vertex whose Compute call
// is in progress, or -1 outside the compute phase. Channels use it to
// attribute sends and edge registrations to the calling vertex (paper:
// the implicit "this vertex" of the channel APIs).
func (c *Core) CurrentLocal() int { return c.current }

// SetCurrent records li as the vertex whose Compute call is in progress
// (-1: none). The engines' per-vertex loops call it; a channel-engine
// range program calls it before each channel call it makes for li.
func (c *Core) SetCurrent(li int) { c.current = li }

// VoteToHalt deactivates the vertex currently computing. It is
// reactivated when a message is delivered to it.
func (c *Core) VoteToHalt() { c.DeactivateLocal(c.current) }

// DeactivateLocal halts the vertex at local index li.
func (c *Core) DeactivateLocal(li int) {
	if c.active[li] {
		c.active[li] = false
		c.activeCount--
	}
}

// ActivateLocal wakes the vertex at local index li; it takes effect at
// the next superstep.
func (c *Core) ActivateLocal(li int) {
	if !c.active[li] {
		c.active[li] = true
		c.activeCount++
	}
}

// IsActiveLocal reports whether local vertex li is currently active.
func (c *Core) IsActiveLocal(li int) bool { return c.active[li] }

// RequestStop asks the driver to terminate after the current superstep,
// regardless of remaining active vertices. Any worker may call it during
// compute (e.g. when an aggregator shows convergence).
func (c *Core) RequestStop() { c.halt = true }

// Checkpoint registers the algorithm's state closures: save appends the
// per-worker vertex state (local order) to the buffer, restore reads the
// same encoding back into the already-allocated state. Both run at the
// barrier-aligned cut point, so they see state exactly as it stands
// after compute, once round 1 has serialized. Required when
// Env.Checkpoint has a store; a no-op otherwise.
func (c *Core) Checkpoint(save, restore func(buf *ser.Buffer)) {
	c.ckptSave, c.ckptRestore = save, restore
}

// Sample returns the superstep sample being collected, or nil when no
// Observer is attached. Engines add their frame counts to it.
func (c *Core) Sample() *obs.SuperstepSample {
	if !c.obsOn {
		return nil
	}
	return &c.smp
}
