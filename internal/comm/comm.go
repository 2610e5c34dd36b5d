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
// Every message really is serialized to bytes, so the CPU cost of
// message handling — the hashing vs. linear-scan distinction the
// optimized channels exploit — is genuinely paid in process too.
//
// A Fabric only moves buffers: it counts nothing. The superstep driver
// (internal/bsp) counts a job's traffic once, at the seam every engine
// and fabric share — a worker's outgoing buffers just before its Flush —
// and derives from it the network and loopback bytes, the exchange
// rounds, the per-(src, dst) flow matrix and the modeled network time
// (RoundTime), so every figure is identical whichever transport carried
// the data.
package comm

import (
	"time"

	"repro/internal/ser"
)

// The paper's cluster, as the modeled network time charges it: 750 Mbps
// (≈ 93.75 MB/s) of outbound bandwidth per worker and a fixed
// synchronization latency per exchange round (barrier + RPC setup).
const (
	bytesPerSecond = 750e6 / 8
	roundLatency   = time.Millisecond
)

// RoundTime returns the modeled duration of one exchange round in which
// the busiest worker sent maxBytes bytes off-node.
func RoundTime(maxBytes int64) time.Duration {
	return roundLatency + time.Duration(float64(maxBytes)/bytesPerSecond*float64(time.Second))
}

// CostModel is what NewInProc and NewHub took before the model became
// the constants behind RoundTime; it is ignored.
//
// Deprecated: ROADMAP direction 4(d) deletes it with the bench harness
// calls that still pass it.
type CostModel struct{}

// The Exchanger bounds the capacity its buffers retain across rounds.
// Buffers grow to the peak round's volume and would otherwise keep that
// capacity forever; in a long-lived process (graphd) one burst round
// would pin its peak memory for the rest of the process lifetime. Every
// shrinkEvery resets of a row, any buffer whose capacity exceeds
// shrinkSlack times the peak usage observed since the last check (and
// shrinkMinRetain bytes) is reallocated down to the observed peak.
const (
	shrinkEvery     = 64
	shrinkMinRetain = 64 << 10
	shrinkSlack     = 4
)

// Exchanger owns the M×M buffer matrix. Out[s][d] is worker s's outgoing
// buffer for worker d; after a barrier, worker d reads In(d, s) == Out[s][d].
// The engine provides the synchronization; Exchanger provides storage.
type Exchanger struct {
	m   int
	out [][]*ser.Buffer

	peak   [][]int // per (s,d): max bytes written since the last check
	resets []int   // per source: ResetRow calls since the last check
}

// NewExchanger creates the buffer matrix for m workers.
func NewExchanger(m int) *Exchanger {
	e := &Exchanger{
		m:      m,
		out:    make([][]*ser.Buffer, m),
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

// NumWorkers returns the worker count.
func (e *Exchanger) NumWorkers() int { return e.m }

// Out returns worker src's outgoing buffer for dst. Only worker src may
// write it, and only between the post-deserialize barrier and the
// pre-deserialize barrier of the next round.
func (e *Exchanger) Out(src, dst int) *ser.Buffer { return e.out[src][dst] }

// In returns the buffer worker src sent to dst this round. Only worker
// dst may read it, after the serialize barrier.
func (e *Exchanger) In(dst, src int) *ser.Buffer { return e.out[src][dst] }

// ResetRow rewinds and clears worker src's outgoing buffers. Called by
// worker src after every peer has consumed the round's data. It also
// runs the retained-capacity check, so a buffer inflated by one burst
// round is handed back to the allocator once the steady-state volume
// proves to be much smaller.
func (e *Exchanger) ResetRow(src int) {
	for d := 0; d < e.m; d++ {
		b := e.out[src][d]
		if n := b.Len(); n > e.peak[src][d] {
			e.peak[src][d] = n
		}
		b.Reset()
	}
	e.resets[src]++
	if e.resets[src] < shrinkEvery {
		return
	}
	e.resets[src] = 0
	for d := 0; d < e.m; d++ {
		p := e.peak[src][d]
		e.peak[src][d] = 0
		if c := e.out[src][d].Cap(); c > shrinkMinRetain && p < c/shrinkSlack {
			e.out[src][d] = ser.NewBuffer(max(p, 1024))
		}
	}
}
