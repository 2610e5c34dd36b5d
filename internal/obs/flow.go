package obs

import (
	"sync"
	"sync/atomic"
)

// FlowStat is one (src, dst) cell of a job's flow matrix: the volume
// worker src pushed toward worker dst over the whole run, counted at
// the fabric's flush seam (one frame per exchange round that actually
// carried data, so Frames doubles as the flow's non-empty round count).
type FlowStat struct {
	Src    int   `json:"src"`
	Dst    int   `json:"dst"`
	Bytes  int64 `json:"bytes"`
	Frames int64 `json:"frames"`
	// Rounds counts exchange rounds in which this flow carried data;
	// at the flush seam it equals Frames, kept separate so finer-grained
	// transports can diverge.
	Rounds int64 `json:"rounds"`
	// MaxFrame is the largest single flush toward dst; Bytes/Frames is
	// the mean.
	MaxFrame int64 `json:"max_frame"`
}

// MeanFrame returns the average flush size of the flow.
func (f FlowStat) MeanFrame() int64 {
	if f.Frames == 0 {
		return 0
	}
	return f.Bytes / f.Frames
}

// ConnStat describes one p2p peer pair's flow-control behaviour over a
// run: how often and for how long the sending side sat on an exhausted
// credit window, how long credit grants took to arrive while a sender
// was blocked, and — on the adaptive plane — the window's trajectory
// plus the pair's hub-relayed share from before its promotion. Worker
// ranges identify the connection ends (each graphworker process hosts
// a contiguous range). A lazy pair that never earned a direct
// connection reports a relay-only row: Window zero, only the relay
// fields set.
type ConnStat struct {
	LocalLo int `json:"local_lo"`
	LocalHi int `json:"local_hi"`
	PeerLo  int `json:"peer_lo"`
	PeerHi  int `json:"peer_hi"`
	// Window is the connection's current send-window size in bytes (the
	// credit the remote receiver grants this side). Static planes never
	// change it; the adaptive plane retunes it per round.
	Window int64 `json:"window"`
	// RecvWindow is the window this side grants the remote sender — the
	// connection's standing receive-memory cost. Summed over a job's
	// rows it is the mesh's standing window memory.
	RecvWindow int64 `json:"recv_window,omitempty"`
	// WindowPeak and Resizes trace the adaptive controller's activity:
	// the largest send window the run reached and how many resize
	// events the connection saw (in either role — granted or applied).
	WindowPeak int64 `json:"window_peak,omitempty"`
	Resizes    int64 `json:"resizes,omitempty"`
	// Bytes/Frames count data frames written to this connection.
	Bytes  int64 `json:"bytes"`
	Frames int64 `json:"frames"`
	// RelayBytes/RelayFrames count this pair's traffic that rode the
	// hub relay instead (the lazy mesh's cold phase, plus any frames
	// latched onto the relay mid-promotion).
	RelayBytes  int64 `json:"relay_bytes,omitempty"`
	RelayFrames int64 `json:"relay_frames,omitempty"`
	// StallNS is cumulative time the local senders spent blocked on an
	// exhausted window; GrantWaitNS/Grants measure how long the credits
	// that unblocked them took to arrive.
	StallNS     int64 `json:"stall_ns"`
	GrantWaitNS int64 `json:"grant_wait_ns"`
	Grants      int64 `json:"grants"`
}

// RelayStat is one worker process's share of hub data-plane relay
// traffic: frames the hub accepted from that process's worker range —
// those for workers of other processes; co-hosted frames never reach
// the hub — and the cumulative time they spent resident in the hub
// (read to flushed onto the destination's stream).
type RelayStat struct {
	Lo          int   `json:"lo"`
	Hi          int   `json:"hi"`
	Bytes       int64 `json:"bytes"`
	Frames      int64 `json:"frames"`
	ResidencyNS int64 `json:"residency_ns"`
}

// FlowMatrix is the per-job flow-level network picture: the dense
// (src, dst) volume matrix plus the transport-specific extras (p2p
// connection flow-control stats, hub relay stats). Shape is identical
// whichever fabric ran the job; Conns and Relays are empty on fabrics
// that have no such machinery.
type FlowMatrix struct {
	// Plane names the data plane that carried the job: "inproc", "hub"
	// or "p2p".
	Plane   string `json:"plane"`
	Workers int    `json:"workers"`
	// Flows holds the non-empty matrix cells in (src, dst) order.
	Flows  []FlowStat  `json:"flows"`
	Conns  []ConnStat  `json:"conns,omitempty"`
	Relays []RelayStat `json:"relays,omitempty"`
}

// Flow returns the (src, dst) cell, or a zero FlowStat if the flow
// never carried data.
func (m *FlowMatrix) Flow(src, dst int) FlowStat {
	for _, f := range m.Flows {
		if f.Src == src && f.Dst == dst {
			return f
		}
	}
	return FlowStat{Src: src, Dst: dst}
}

// flowCell is one accumulating matrix cell. All fields are atomics so
// Record stays lock-free: the fabrics call it from worker goroutines on
// the exchange hot path, and snapshots may race with a live run.
type flowCell struct {
	bytes    atomic.Int64
	frames   atomic.Int64
	maxFrame atomic.Int64
}

// FlowAccum accumulates a flow matrix during a run. The cell matrix is
// preallocated so Record performs no allocation and takes no lock; the
// transport-specific extras (connection and relay stats) are appended
// at run boundaries under a mutex. One FlowAccum serves a whole job: on
// the distributed path the coordinator merges each worker process's
// shipped matrix into it, so both fabrics produce the same shape.
type FlowAccum struct {
	workers int
	cells   []flowCell // workers*workers, row-major by src

	mu     sync.Mutex
	plane  string
	conns  []ConnStat
	relays []RelayStat
}

// NewFlowAccum creates an accumulator for a job with the given worker
// count.
func NewFlowAccum(workers int) *FlowAccum {
	return &FlowAccum{workers: workers, cells: make([]flowCell, workers*workers)}
}

// Workers returns the job's worker count.
func (a *FlowAccum) Workers() int { return a.workers }

// SetPlane records which data plane carried the job.
func (a *FlowAccum) SetPlane(plane string) {
	a.mu.Lock()
	a.plane = plane
	a.mu.Unlock()
}

// Record accounts one flush of n bytes from src toward dst. Lock-free
// and allocation-free; callers skip empty flushes.
func (a *FlowAccum) Record(src, dst int, n int64) {
	if src < 0 || src >= a.workers || dst < 0 || dst >= a.workers {
		return
	}
	c := &a.cells[src*a.workers+dst]
	c.bytes.Add(n)
	c.frames.Add(1)
	for {
		cur := c.maxFrame.Load()
		if n <= cur || c.maxFrame.CompareAndSwap(cur, n) {
			break
		}
	}
}

// AddConn appends one p2p connection's flow-control stats.
func (a *FlowAccum) AddConn(c ConnStat) {
	a.mu.Lock()
	a.conns = append(a.conns, c)
	a.mu.Unlock()
}

// AddRelay appends one worker process's hub relay stats.
func (a *FlowAccum) AddRelay(r RelayStat) {
	a.mu.Lock()
	a.relays = append(a.relays, r)
	a.mu.Unlock()
}

// Merge folds a shipped matrix (one worker process's share, or a whole
// job's) into the accumulator: cells add, extras append. The
// coordinator calls it once per successful worker partial, so an
// aborted attempt that shipped nothing contributes nothing.
func (a *FlowAccum) Merge(m *FlowMatrix) {
	if m == nil {
		return
	}
	for _, f := range m.Flows {
		if f.Src < 0 || f.Src >= a.workers || f.Dst < 0 || f.Dst >= a.workers {
			continue
		}
		c := &a.cells[f.Src*a.workers+f.Dst]
		c.bytes.Add(f.Bytes)
		c.frames.Add(f.Frames)
		for {
			cur := c.maxFrame.Load()
			if f.MaxFrame <= cur || c.maxFrame.CompareAndSwap(cur, f.MaxFrame) {
				break
			}
		}
	}
	a.mu.Lock()
	if a.plane == "" {
		a.plane = m.Plane
	}
	a.conns = append(a.conns, m.Conns...)
	a.relays = append(a.relays, m.Relays...)
	a.mu.Unlock()
}

// Matrix snapshots the accumulator into its dense JSON view, listing
// only cells that carried data. Safe to call while a run is still
// recording; a concurrent snapshot sees a consistent-enough live
// prefix.
func (a *FlowAccum) Matrix() *FlowMatrix {
	a.mu.Lock()
	m := &FlowMatrix{
		Plane:   a.plane,
		Workers: a.workers,
		Conns:   append([]ConnStat(nil), a.conns...),
		Relays:  append([]RelayStat(nil), a.relays...),
	}
	a.mu.Unlock()
	for s := 0; s < a.workers; s++ {
		for d := 0; d < a.workers; d++ {
			c := &a.cells[s*a.workers+d]
			frames := c.frames.Load()
			if frames == 0 {
				continue
			}
			m.Flows = append(m.Flows, FlowStat{
				Src: s, Dst: d,
				Bytes:    c.bytes.Load(),
				Frames:   frames,
				Rounds:   frames,
				MaxFrame: c.maxFrame.Load(),
			})
		}
	}
	return m
}
