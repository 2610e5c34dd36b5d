// Package comm defines the cluster transport seam and its in-process
// implementation. The paper runs on an 8-node EC2 cluster with 750 Mbps
// links; the engines see only the Fabric interface (per-worker
// endpoints exchanging binary buffers pairwise, exactly the paper's
// architecture, Fig. 2: worker k holds one outgoing buffer per peer,
// and after a synchronization point every worker reads the buffers
// addressed to it). The default implementation here keeps all workers
// in one process around the zero-copy Exchanger matrix;
// internal/netcomm satisfies the same contract over TCP/Unix sockets
// for workers in separate processes.
//
// Two things make the in-process fabric an adequate substrate for
// reproducing the paper's numbers: every message
// really is serialized to bytes (so the CPU cost of message handling —
// the hashing vs. linear-scan distinction the optimized channels
// exploit — is genuinely paid), and every byte that crosses a worker
// boundary is counted and charged to a configurable bandwidth/latency
// model, producing a simulated network time comparable across engine
// variants.
//
// The telemetry plane (internal/obs) deliberately sits above this
// seam: the engines count bytes and frames at their own serialize and
// deserialize points, not inside a Fabric implementation, so a
// superstep trace records identical per-channel volumes whichever
// transport carried the data. A Fabric only has to move buffers; it
// never needs to know it is being observed. The one exception is the
// per-(src,dst) flow matrix: destination fan-out only exists below the
// engines' serialize points, so an optional obs.FlowAccum attaches to
// the Exchanger (SetFlows) and is fed at the flush seam — one nil
// check per destination when detached.
package comm

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ser"
)

// CostModel converts per-round communication volume into simulated
// network time. The defaults model the paper's cluster: 750 Mbps
// full-duplex per node pair and a synchronization latency per exchange
// round.
type CostModel struct {
	// BytesPerSecond is the per-worker outbound bandwidth. Zero selects
	// the default (750 Mbps ≈ 93.75 MB/s).
	BytesPerSecond float64
	// RoundLatency is the fixed synchronization cost charged per
	// exchange round (barrier + RPC setup). Zero selects 1 ms.
	RoundLatency time.Duration
}

func (c CostModel) withDefaults() CostModel {
	if c.BytesPerSecond == 0 {
		c.BytesPerSecond = 750e6 / 8
	}
	if c.RoundLatency == 0 {
		c.RoundLatency = time.Millisecond
	}
	return c
}

// RoundTime returns the simulated duration of one exchange round in
// which the busiest worker sent maxBytes bytes off-node.
func (c CostModel) RoundTime(maxBytes int64) time.Duration {
	c = c.withDefaults()
	return c.RoundLatency + time.Duration(float64(maxBytes)/c.BytesPerSecond*float64(time.Second))
}

// Stats accumulates communication statistics over a run.
type Stats struct {
	// NetworkBytes counts bytes sent between distinct workers.
	NetworkBytes int64
	// LocalBytes counts loopback bytes (worker to itself). The paper's
	// "message (GB)" columns count network traffic; local bytes are
	// reported separately.
	LocalBytes int64
	// Rounds counts buffer-exchange rounds (≥ 1 per superstep).
	Rounds int64
	// ShrunkBuffers counts outgoing buffers reallocated down by the
	// retained-capacity shrink policy.
	ShrunkBuffers int64
	// SimNetTime is the simulated network time under the cost model.
	SimNetTime time.Duration
	// PeerBytes, when the transport distinguishes destinations (the
	// socket fabric), counts bytes sent per destination worker id from
	// this process. Nil on transports that do not track it.
	PeerBytes []int64
}

// ShrinkPolicy bounds the capacity the Exchanger's buffers retain
// across rounds. Buffers grow to the peak round's volume and normally
// keep that capacity forever; in a long-lived process (graphd) one
// burst round would otherwise pin its peak memory for the rest of the
// process lifetime. Every CheckEvery resets of a row, any buffer whose
// capacity exceeds Slack times the peak usage observed since the last
// check (and MinRetain) is reallocated down to the observed peak.
type ShrinkPolicy struct {
	// CheckEvery is the number of rounds between capacity checks.
	// Zero selects 64; negative disables shrinking.
	CheckEvery int
	// MinRetain is the capacity in bytes at or below which a buffer is
	// never shrunk. Zero selects 64 KiB.
	MinRetain int
	// Slack is the allowed ratio of retained capacity to observed peak
	// usage. Zero selects 4.
	Slack int
}

func (p ShrinkPolicy) withDefaults() ShrinkPolicy {
	if p.CheckEvery == 0 {
		p.CheckEvery = 64
	}
	if p.MinRetain == 0 {
		p.MinRetain = 64 << 10
	}
	if p.Slack == 0 {
		p.Slack = 4
	}
	return p
}

// Exchanger owns the M×M buffer matrix. Out[s][d] is worker s's outgoing
// buffer for worker d; after a barrier, worker d reads In(d, s) == Out[s][d].
// The engine provides the synchronization; Exchanger provides storage and
// accounting.
type Exchanger struct {
	m    int
	out  [][]*ser.Buffer
	cost CostModel

	shrink ShrinkPolicy
	peak   [][]int // per (s,d): max bytes written since the last check
	resets []int   // per source: ResetRow calls since the last check

	netBytes   atomic.Int64
	localBytes atomic.Int64
	shrunk     atomic.Int64
	// round accounting: flushed counts FinishSerialize calls in the
	// current round; the last flusher charges the cost model with the
	// busiest worker's volume (roundMax) and resets both. The engines
	// barrier between the last flush of round r and the first flush of
	// round r+1, so the reset is never concurrent with the next round's
	// updates.
	flushed  atomic.Int32
	roundMax atomic.Int64
	rounds   atomic.Int64
	simNet   atomic.Int64 // nanoseconds

	// flows, when attached, receives one Record per non-empty
	// (src, dst) flush. Nil costs one branch per destination.
	flows *obs.FlowAccum
}

// NewExchanger creates the buffer matrix for m workers with the default
// shrink policy.
func NewExchanger(m int, cost CostModel) *Exchanger {
	e := &Exchanger{
		m:      m,
		out:    make([][]*ser.Buffer, m),
		cost:   cost.withDefaults(),
		shrink: ShrinkPolicy{}.withDefaults(),
		peak:   make([][]int, m),
		resets: make([]int, m),
	}
	for s := 0; s < m; s++ {
		e.out[s] = make([]*ser.Buffer, m)
		e.peak[s] = make([]int, m)
		for d := 0; d < m; d++ {
			e.out[s][d] = ser.NewBuffer(1024)
		}
	}
	return e
}

// SetShrinkPolicy replaces the retained-capacity policy. It must be
// called before the exchanger is used, not mid-run.
func (e *Exchanger) SetShrinkPolicy(p ShrinkPolicy) { e.shrink = p.withDefaults() }

// SetFlows attaches a flow-matrix accumulator fed at the flush seam.
// Like SetShrinkPolicy, call before the exchanger is used, not mid-run.
func (e *Exchanger) SetFlows(f *obs.FlowAccum) { e.flows = f }

// NumWorkers returns the worker count.
func (e *Exchanger) NumWorkers() int { return e.m }

// Out returns worker src's outgoing buffer for dst. Only worker src may
// write it, and only between the post-deserialize barrier and the
// pre-deserialize barrier of the next round.
func (e *Exchanger) Out(src, dst int) *ser.Buffer { return e.out[src][dst] }

// In returns the buffer worker src sent to dst this round. Only worker
// dst may read it, after the serialize barrier.
func (e *Exchanger) In(dst, src int) *ser.Buffer { return e.out[src][dst] }

// FinishSerialize is called by worker src after it has written all its
// outgoing buffers for the round; it accounts the bytes. The last
// worker to flush a round also finalizes it: the cost model is charged
// with the busiest worker's outbound volume, so no separate
// finish-the-round call (which would need a globally elected worker) is
// required.
func (e *Exchanger) FinishSerialize(src int) {
	var net, local int64
	for d := 0; d < e.m; d++ {
		n := int64(e.out[src][d].Len())
		if d == src {
			local += n
		} else {
			net += n
		}
		if e.flows != nil && n > 0 {
			e.flows.Record(src, d, n)
		}
	}
	e.netBytes.Add(net)
	e.localBytes.Add(local)
	for {
		cur := e.roundMax.Load()
		if net <= cur || e.roundMax.CompareAndSwap(cur, net) {
			break
		}
	}
	if e.flushed.Add(1) == int32(e.m) {
		mx := e.roundMax.Load()
		e.roundMax.Store(0)
		e.flushed.Store(0)
		e.rounds.Add(1)
		e.simNet.Add(int64(e.cost.RoundTime(mx)))
	}
}

// ResetRow rewinds and clears worker src's outgoing buffers. Called by
// worker src after every peer has consumed the round's data. It also
// runs the retained-capacity check of the shrink policy, so a buffer
// inflated by one burst round is handed back to the allocator once the
// steady-state volume proves to be much smaller.
func (e *Exchanger) ResetRow(src int) {
	for d := 0; d < e.m; d++ {
		b := e.out[src][d]
		if n := b.Len(); n > e.peak[src][d] {
			e.peak[src][d] = n
		}
		b.Reset()
	}
	if e.shrink.CheckEvery < 0 {
		return
	}
	e.resets[src]++
	if e.resets[src] < e.shrink.CheckEvery {
		return
	}
	e.resets[src] = 0
	for d := 0; d < e.m; d++ {
		p := e.peak[src][d]
		e.peak[src][d] = 0
		b := e.out[src][d]
		if c := b.Cap(); c > e.shrink.MinRetain && p < c/e.shrink.Slack {
			if p < 1024 {
				p = 1024
			}
			e.out[src][d] = ser.NewBuffer(p)
			e.shrunk.Add(1)
		}
	}
}

// RewindRow rewinds the read cursors of the buffers addressed to dst so
// they can be parsed. Called by worker dst before deserializing.
func (e *Exchanger) RewindRow(dst int) {
	for s := 0; s < e.m; s++ {
		e.out[s][dst].Rewind()
	}
}

// Stats returns the accumulated statistics.
func (e *Exchanger) Stats() Stats {
	return Stats{
		NetworkBytes:  e.netBytes.Load(),
		LocalBytes:    e.localBytes.Load(),
		Rounds:        e.rounds.Load(),
		ShrunkBuffers: e.shrunk.Load(),
		SimNetTime:    time.Duration(e.simNet.Load()),
	}
}
