package netcomm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// ErrWorkerLost marks a job failure caused by a worker process dropping
// its hub connection before delivering a result — the one failure class
// a coordinator with checkpoints can recover from by respawning the
// party. Wrapped into the hub's synthesized transport errors; test with
// errors.Is.
var ErrWorkerLost = errors.New("netcomm: worker connection lost")

// Hub is the coordinator side of the socket fabric: it accepts one
// connection per worker process, routes data frames between them, runs
// the distributed barrier (counting arrivals, broadcasting releases
// with the AllReduce aggregate), charges the simulated cost model from
// the per-round flush reports, and collects each process's result blob.
// A connection that drops before delivering its result is a worker
// failure: the hub aborts the job so every other process unwinds
// instead of waiting on a barrier the dead worker will never reach.
type Hub struct {
	m    int
	cost comm.CostModel
	ln   net.Listener
	log  *slog.Logger

	mu       sync.Mutex
	cond     *sync.Cond // signals joins, results, and state changes
	hosts    []*hubConn // per worker id: the connection hosting it
	conns    map[*hubConn]bool
	allConns []*hubConn // every connection ever registered (relay stats outlive pump exit)

	// samplesFn, when set (OnSamples, before workers join), receives
	// each kSamples payload a worker ships mid-run.
	samplesFn func(payload []byte)

	// barrier state
	arrived int
	accum   uint64

	// p2p data plane: the directory broadcast fires once, when every
	// worker has joined and announced a listener.
	peersSent bool

	// dataBytes counts frame payload bytes relayed through the hub —
	// the whole exchange volume on the hub plane, ~0 under p2p (where
	// only control traffic remains on the star).
	dataBytes int64

	// round accounting (from kFlush reports)
	flushes  int
	roundMax int64
	netBytes int64
	locBytes int64
	rounds   int64
	simNet   time.Duration

	// completion state: a worker is settled once its connection
	// delivered a result or was declared lost.
	results  map[int][]byte    // range-lo worker id -> result blob
	resultAt map[int]time.Time // range-lo worker id -> blob arrival time
	settled  []bool            // per worker id
	errs     []error           // synthesized transport failures
	aborted  bool
	reason   string // why the job aborted, for processes that join afterwards
	closed   bool
}

type hubConn struct {
	conn      net.Conn
	wmu       sync.Mutex
	lo, hi    int
	gotResult bool

	// p2p data plane: the process's announced data listener.
	listenNet  string
	listenAddr string
	hasListen  bool

	// Relay telemetry (hub data plane): frames this connection sourced,
	// and how long they spent resident in the hub from payload read to
	// forwarded. Atomics: the pump goroutine writes, RelayStats reads.
	relayBytes  atomic.Int64
	relayFrames atomic.Int64
	residencyNS atomic.Int64
}

// NewHub creates a hub for an m-worker job and starts serving on ln
// (closing ln stops the accept loop; the caller owns ln's lifetime via
// Hub.Close).
func NewHub(m int, cost comm.CostModel, ln net.Listener) *Hub {
	h := &Hub{
		m:        m,
		cost:     cost,
		ln:       ln,
		log:      slog.New(slog.DiscardHandler),
		hosts:    make([]*hubConn, m),
		conns:    make(map[*hubConn]bool),
		results:  make(map[int][]byte),
		resultAt: make(map[int]time.Time),
		settled:  make([]bool, m),
	}
	h.cond = sync.NewCond(&h.mu)
	go h.acceptLoop()
	return h
}

func (h *Hub) acceptLoop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go h.serveConn(conn)
	}
}

// serveConn registers a worker process (hello) and then pumps its
// messages until the connection ends.
func (h *Hub) serveConn(conn net.Conn) {
	kind, a, b, n, err := readHeader(conn)
	if err != nil || kind != kHello || n != 0 {
		conn.Close()
		return
	}
	hc := &hubConn{conn: conn, lo: int(a), hi: int(b)}
	h.mu.Lock()
	if hc.lo > hc.hi || hc.hi >= h.m || h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	for w := hc.lo; w <= hc.hi; w++ {
		if h.hosts[w] != nil {
			h.mu.Unlock()
			conn.Close()
			return
		}
		h.hosts[w] = hc
	}
	h.conns[hc] = true
	h.allConns = append(h.allConns, hc)
	aborted, reason := h.aborted, h.reason
	h.cond.Broadcast()
	h.mu.Unlock()
	h.log.Debug("worker joined", "workers", fmt.Sprintf("%d-%d", hc.lo, hc.hi))
	if aborted {
		// the abort broadcast went out before this process connected: tell
		// it directly, or it would wait on a barrier nobody else reaches
		_ = h.forward(hc, kAbort, 0, 0, []byte(reason))
	}

	err = h.pump(hc)
	h.mu.Lock()
	delete(h.conns, hc)
	if !hc.gotResult {
		// The process died before reporting. If the job was already
		// aborted the drop is expected fallout (the process unwound or
		// was torn down), not a root cause — record the failure only
		// when this connection is the first thing to go wrong.
		if !h.aborted {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			h.errs = append(h.errs,
				fmt.Errorf("%w: workers %d-%d: %v", ErrWorkerLost, hc.lo, hc.hi, err))
			h.log.Warn("worker connection lost",
				"workers", fmt.Sprintf("%d-%d", hc.lo, hc.hi), "err", err)
		}
		for w := hc.lo; w <= hc.hi; w++ {
			h.settled[w] = true
		}
		h.abortLocked(fmt.Sprintf("workers %d-%d: worker process died", hc.lo, hc.hi))
	}
	h.cond.Broadcast()
	h.mu.Unlock()
	conn.Close()
}

// pump handles one registered connection's messages; it returns nil on
// clean shutdown (result delivered, then EOF).
func (h *Hub) pump(hc *hubConn) error {
	var scratch [16]byte
	var frame []byte // reusable frame payload staging
	defer func() { hubBuffered.Add(-int64(cap(frame))) }()
	for {
		kind, a, b, n, err := readHeader(hc.conn)
		if err != nil {
			if hc.gotResult && err == io.EOF {
				return nil
			}
			return err
		}
		switch kind {
		case kFrame:
			src, dst := int(a), int(b)
			if src < hc.lo || src > hc.hi || dst >= h.m {
				return fmt.Errorf("bad frame route %d->%d", src, dst)
			}
			// Stage the payload before writing so a failed forward never
			// desynchronizes the sender's stream.
			if cap(frame) < n {
				hubBuffered.Add(int64(n - cap(frame)))
				frame = make([]byte, n)
			}
			frame = frame[:n]
			t0 := time.Now()
			if _, err := io.ReadFull(hc.conn, frame); err != nil {
				return err
			}
			h.mu.Lock()
			h.dataBytes += int64(n)
			target := h.hosts[dst]
			h.mu.Unlock()
			if target == nil {
				return fmt.Errorf("frame for unjoined worker %d", dst)
			}
			err := h.forward(target, kFrame, a, b, frame)
			hc.relayBytes.Add(int64(n))
			hc.relayFrames.Add(1)
			hc.residencyNS.Add(int64(time.Since(t0)))
			if err != nil {
				// The destination's connection is broken — that worker's
				// failure, not the sender's. Record it (first failure
				// wins) and abort; keep pumping the sender so its own
				// result still gets through.
				h.targetLost(target, err)
			}
		case kDone:
			// A lazy-mesh round marker for a pair still on the relay:
			// forward to the process hosting worker range b. It follows
			// the round's relayed frames on both the inbound stream
			// (sender wrote frames first) and the outbound one (the
			// frames were forwarded above before this marker was read),
			// so the destination observes frames-then-done exactly as on
			// a direct connection.
			if n != 0 {
				return fmt.Errorf("bad done marker payload length %d", n)
			}
			src, dst := int(a), int(b)
			if src < hc.lo || src > hc.hi || dst >= h.m {
				return fmt.Errorf("bad done marker route %d->%d", src, dst)
			}
			h.mu.Lock()
			target := h.hosts[dst]
			h.mu.Unlock()
			if target == nil {
				return fmt.Errorf("done marker for unjoined worker %d", dst)
			}
			if err := h.forward(target, kDone, a, b, nil); err != nil {
				h.targetLost(target, err)
			}
		case kPromote:
			// A mesh-promotion request from the higher-range side of a
			// relayed pair, forwarded to the lower-range side (worker
			// range start b), which owns the dial.
			p := make([]byte, n)
			if _, err := io.ReadFull(hc.conn, p); err != nil {
				return err
			}
			plo, phi, _, err := decodePromote(p)
			if err != nil {
				return err
			}
			if plo != hc.lo || phi != hc.hi {
				return fmt.Errorf("promotion request claims workers %d-%d from connection %d-%d", plo, phi, hc.lo, hc.hi)
			}
			dst := int(b)
			if dst >= h.m {
				return fmt.Errorf("bad promotion target %d", dst)
			}
			h.mu.Lock()
			target := h.hosts[dst]
			h.mu.Unlock()
			if target == nil {
				return fmt.Errorf("promotion request for unjoined worker %d", dst)
			}
			if err := h.forward(target, kPromote, a, b, p); err != nil {
				h.targetLost(target, err)
			}
		case kFlush:
			if n != 16 {
				return fmt.Errorf("bad flush payload length %d", n)
			}
			if _, err := io.ReadFull(hc.conn, scratch[:16]); err != nil {
				return err
			}
			netB := int64(binary.LittleEndian.Uint64(scratch[0:]))
			locB := int64(binary.LittleEndian.Uint64(scratch[8:]))
			h.mu.Lock()
			h.netBytes += netB
			h.locBytes += locB
			if netB > h.roundMax {
				h.roundMax = netB
			}
			h.flushes++
			if h.flushes == h.m {
				h.flushes = 0
				h.rounds++
				h.simNet += h.cost.RoundTime(h.roundMax)
				h.roundMax = 0
			}
			h.mu.Unlock()
		case kArrive:
			if n != 8 {
				return fmt.Errorf("bad arrive payload length %d", n)
			}
			if _, err := io.ReadFull(hc.conn, scratch[:8]); err != nil {
				return err
			}
			h.arrive(int(a), binary.LittleEndian.Uint64(scratch[:8]))
		case kListen:
			p := make([]byte, n)
			if _, err := io.ReadFull(hc.conn, p); err != nil {
				return err
			}
			lnet, laddr, err := decodeListen(p)
			if err != nil {
				return err
			}
			h.mu.Lock()
			hc.listenNet, hc.listenAddr, hc.hasListen = lnet, laddr, true
			h.maybeSendPeersLocked()
			h.mu.Unlock()
		case kAbort:
			reason := make([]byte, n)
			if _, err := io.ReadFull(hc.conn, reason); err != nil {
				return err
			}
			h.mu.Lock()
			h.abortLocked(fmt.Sprintf("workers %d-%d: %s", hc.lo, hc.hi, reason))
			h.mu.Unlock()
		case kSamples:
			p := make([]byte, n)
			if _, err := io.ReadFull(hc.conn, p); err != nil {
				return err
			}
			h.mu.Lock()
			fn := h.samplesFn
			h.mu.Unlock()
			if fn != nil {
				fn(p)
			}
		case kResult:
			blob := make([]byte, n)
			if _, err := io.ReadFull(hc.conn, blob); err != nil {
				return err
			}
			h.mu.Lock()
			h.results[hc.lo] = blob
			h.resultAt[hc.lo] = time.Now()
			hc.gotResult = true
			for w := hc.lo; w <= hc.hi; w++ {
				h.settled[w] = true
			}
			h.cond.Broadcast()
			h.mu.Unlock()
		default:
			return fmt.Errorf("unexpected message kind %d", kind)
		}
	}
}

// maybeSendPeersLocked broadcasts the peer directory once every worker
// has joined and every connection has announced a data listener. Every
// process sends its kListen after its kHello on the same stream, so
// the party's last kListen is the event that completes the directory;
// the writes run in their own goroutine (h.mu stays cheap, and a
// stalled worker cannot wedge the pump that triggered the broadcast).
func (h *Hub) maybeSendPeersLocked() {
	if h.peersSent || h.closed {
		return
	}
	for _, hc := range h.hosts {
		if hc == nil {
			return
		}
	}
	conns := make([]*hubConn, 0, len(h.conns))
	dir := make([]peerInfo, 0, len(h.conns))
	for hc := range h.conns {
		if !hc.hasListen {
			return
		}
		conns = append(conns, hc)
		dir = append(dir, peerInfo{lo: hc.lo, hi: hc.hi, network: hc.listenNet, addr: hc.listenAddr})
	}
	sort.Slice(dir, func(i, j int) bool { return dir[i].lo < dir[j].lo })
	h.peersSent = true
	payload := encodePeerDirectory(dir)
	h.log.Debug("peer directory broadcast", "processes", len(dir))
	go func() {
		for _, hc := range conns {
			hc.wmu.Lock()
			_ = writeMsg(hc.conn, kPeers, 0, 0, payload)
			hc.wmu.Unlock()
		}
	}()
}

// OnSamples installs a handler for the opaque in-flight sample batches
// workers ship with Client.SendSamples (the live-events feed). The
// handler runs on hub pump goroutines, so it must be safe for
// concurrent use and quick. Call before workers connect.
func (h *Hub) OnSamples(fn func(payload []byte)) {
	h.mu.Lock()
	h.samplesFn = fn
	h.mu.Unlock()
}

// RelayStats reports, per worker process, the hub data-plane relay
// traffic it sourced: frame volume and cumulative hub residency (read
// to forwarded). Empty under p2p, where frames never transit the hub.
func (h *Hub) RelayStats() []obs.RelayStat {
	h.mu.Lock()
	conns := append([]*hubConn(nil), h.allConns...)
	h.mu.Unlock()
	out := make([]obs.RelayStat, 0, len(conns))
	for _, hc := range conns {
		frames := hc.relayFrames.Load()
		if frames == 0 {
			continue
		}
		out = append(out, obs.RelayStat{
			Lo: hc.lo, Hi: hc.hi + 1,
			Bytes:       hc.relayBytes.Load(),
			Frames:      frames,
			ResidencyNS: hc.residencyNS.Load(),
		})
	}
	return out
}

// DataBytes returns the frame payload bytes relayed through the hub so
// far. On the hub data plane this is the job's whole exchange volume;
// under p2p it stays at zero — the test-visible proof that data frames
// never transit the coordinator.
func (h *Hub) DataBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dataBytes
}

// forward relays one staged message to a worker connection.
func (h *Hub) forward(to *hubConn, kind uint8, a, b uint16, payload []byte) error {
	to.wmu.Lock()
	defer to.wmu.Unlock()
	return writeMsg(to.conn, kind, a, b, payload)
}

// targetLost records a failed forward: the destination's connection is
// broken — that worker's failure, not the sender's. First failure wins;
// the job aborts either way.
func (h *Hub) targetLost(target *hubConn, err error) {
	h.mu.Lock()
	if !h.aborted {
		h.errs = append(h.errs,
			fmt.Errorf("%w: workers %d-%d: %v", ErrWorkerLost, target.lo, target.hi, err))
	}
	h.abortLocked(fmt.Sprintf("workers %d-%d: frame delivery failed", target.lo, target.hi))
	h.mu.Unlock()
}

// arrive counts barrier arrivals; the M-th arrival releases the
// crossing by broadcasting the aggregate.
func (h *Hub) arrive(count int, value uint64) {
	h.mu.Lock()
	h.arrived += count
	h.accum += value
	if h.arrived < h.m {
		h.mu.Unlock()
		return
	}
	h.arrived = 0
	agg := h.accum
	h.accum = 0
	conns := make([]*hubConn, 0, len(h.conns))
	for hc := range h.conns {
		conns = append(conns, hc)
	}
	h.mu.Unlock()
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], agg)
	for _, hc := range conns {
		hc.wmu.Lock()
		_ = writeMsg(hc.conn, kRelease, 0, 0, p[:])
		hc.wmu.Unlock()
	}
}

// Abort aborts the job: every connected process's barrier is released
// with the reason and the job can never complete normally.
func (h *Hub) Abort(reason string) {
	h.mu.Lock()
	h.abortLocked(reason)
	h.mu.Unlock()
}

// abortLocked broadcasts the abort once; later aborts are no-ops (the
// first reason is the root cause). The socket writes run in their own
// goroutine: a worker whose receive path has stalled would otherwise
// block the broadcast while h.mu is held and wedge the whole hub —
// including the WaitResults deadline, whose wakeup needs h.mu too. A
// write deadline bounds the goroutine against such a worker; its
// connection is doomed regardless.
func (h *Hub) abortLocked(reason string) {
	if h.aborted {
		return
	}
	h.aborted, h.reason = true, reason
	h.log.Warn("job aborted", "reason", reason)
	conns := make([]*hubConn, 0, len(h.conns))
	for hc := range h.conns {
		conns = append(conns, hc)
	}
	h.cond.Broadcast()
	go func() {
		for _, hc := range conns {
			hc.wmu.Lock()
			hc.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			_ = writeMsg(hc.conn, kAbort, 0, 0, []byte(reason))
			hc.conn.SetWriteDeadline(time.Time{})
			hc.wmu.Unlock()
		}
	}()
}

// Addr returns the hub's listen address (for spawning workers).
func (h *Hub) Addr() net.Addr { return h.ln.Addr() }

// WaitJoined blocks until all m workers are connected or the deadline
// passes.
func (h *Hub) WaitJoined(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stop := time.AfterFunc(timeout, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer stop.Stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		joined := 0
		for _, hc := range h.hosts {
			if hc != nil {
				joined++
			}
		}
		if joined == h.m {
			return nil
		}
		if h.aborted {
			return fmt.Errorf("netcomm: job aborted while waiting for workers")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("netcomm: %d of %d workers joined within %v", joined, h.m, timeout)
		}
		h.cond.Wait()
	}
}

// WaitResults blocks until every worker is settled (result delivered or
// connection declared lost) or the deadline passes, then returns the
// result blobs sorted by worker range plus any synthesized transport
// errors.
func (h *Hub) WaitResults(timeout time.Duration) ([][]byte, []error, error) {
	deadline := time.Now().Add(timeout)
	stop := time.AfterFunc(timeout, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer stop.Stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		allSettled := true
		for w, s := range h.settled {
			if s {
				continue
			}
			// once the job is aborted, a worker whose connection is
			// gone — or that never joined at all (its process died
			// before dialing) — can deliver nothing more; waiting out
			// the deadline for it would stall every fast-failing job
			if h.aborted && !h.conns[h.hosts[w]] {
				continue
			}
			allSettled = false
			break
		}
		if allSettled {
			los := make([]int, 0, len(h.results))
			for lo := range h.results {
				los = append(los, lo)
			}
			sort.Ints(los)
			blobs := make([][]byte, 0, len(los))
			for _, lo := range los {
				blobs = append(blobs, h.results[lo])
			}
			return blobs, h.errs, nil
		}
		if time.Now().After(deadline) {
			return nil, h.errs, fmt.Errorf("netcomm: timed out waiting for worker results after %v", timeout)
		}
		h.cond.Wait()
	}
}

// SetLogger directs the hub's lifecycle events (joins, lost
// connections, aborts) to l. The default logger discards them. Call
// before workers connect.
func (h *Hub) SetLogger(l *slog.Logger) {
	if l != nil {
		h.log = l
	}
}

// ResultTimes returns, per reporting worker range (keyed by the range's
// first worker id), the time its result blob arrived at the hub.
func (h *Hub) ResultTimes() map[int]time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]time.Time, len(h.resultAt))
	for lo, t := range h.resultAt {
		out[lo] = t
	}
	return out
}

// Stats returns the job-wide communication statistics observed by the
// hub.
func (h *Hub) Stats() comm.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return comm.Stats{
		NetworkBytes: h.netBytes,
		LocalBytes:   h.locBytes,
		Rounds:       h.rounds,
		SimNetTime:   h.simNet,
	}
}

// Close shuts the hub down: the listener stops accepting and every
// connection is closed.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	conns := make([]*hubConn, 0, len(h.conns))
	for hc := range h.conns {
		conns = append(conns, hc)
	}
	h.mu.Unlock()
	h.ln.Close()
	for _, hc := range conns {
		hc.conn.Close()
	}
}
