package netcomm

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
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

// hubBuffered is the package-wide hub memory gauge, exported to
// /metrics by internal/server: the bytes hubs hold for their worker
// connections, each connection's read and write buffers (2 x
// connBufSize) plus whatever its read buffer grew by to fit the largest
// frame relayed.
var hubBuffered atomic.Int64

// DataPlaneStats reports the bytes currently held in hub connection
// buffers, process-wide.
func DataPlaneStats() (hubBufferedBytes int64) { return hubBuffered.Load() }

// Hub is the coordinator side of the socket fabric: it accepts one
// connection per worker process, routes data frames between them
// (staged in the destination's buffered writer, flushed once per batch
// the source's pump read), relays each barrier arrival to every other
// process behind the frames that preceded it (the processes count the
// arrivals and decide each crossing themselves) and collects each
// process's result blob. What it counts is its own work:
// the frames it relayed (DataBytes, RelayStats).
// A connection that drops before delivering its result is a worker
// failure: the hub aborts the job so every other process unwinds
// instead of waiting on a barrier the dead worker will never reach.
type Hub struct {
	m   int
	ln  net.Listener
	log *slog.Logger

	mu       sync.Mutex
	cond     *sync.Cond // signals joins, results, and state changes
	hosts    []*hubConn // per worker id: the connection hosting it
	joined   int        // workers registered
	conns    map[*hubConn]bool
	allConns []*hubConn // every connection ever registered (relay stats outlive pump exit)
	// open holds every accepted connection until its serveConn returns,
	// registered or not: Close closes them all, so a peer that never
	// says hello cannot keep Close waiting.
	open map[net.Conn]bool
	// wg counts the goroutines the hub started — the accept loop, one
	// serveConn per accepted connection and abort broadcasts — so Close
	// returns only once each has released what it holds.
	wg sync.WaitGroup

	// early keeps the arrivals read before all m workers joined, to be
	// replayed to each process that registers later; once the party is
	// whole it is dropped.
	early []earlyArrival

	// samplesFn, when set (OnSamples, before workers join), receives
	// each kSamples payload a worker ships mid-run.
	samplesFn func(payload []byte)

	// dataBytes counts frame payload bytes relayed through the hub —
	// the job's cross-process exchange volume.
	dataBytes int64

	// completion state: a worker is settled once its connection
	// delivered a result or was declared lost.
	results  map[int][]byte    // range-lo worker id -> result blob
	resultAt map[int]time.Time // range-lo worker id -> blob arrival time
	settled  []bool            // per worker id
	nIn      int               // workers whose result has arrived
	allIn    chan struct{}     // closed once nIn reaches m
	errs     []error           // synthesized transport failures
	aborted  bool
	reason   string // why the job aborted, for processes that join afterwards
	closed   bool
}

// earlyArrival is an arrival the hub read before the whole party
// joined: a process has one at most, at the set-up crossing, which is
// plain — its payload is the sum alone.
type earlyArrival struct {
	from *hubConn
	sum  [8]byte
}

type hubConn struct {
	conn      net.Conn
	rd        msgReader // the pump's read side
	lo, hi    int
	gotResult bool

	// Every write to the worker goes through wbuf under wmu — forwards
	// and arrivals staged by other connections' pumps, aborts — so the
	// stream carries them in the order they were written here, whoever
	// flushes. werr is the first write error; the connection is dead
	// from then on.
	wmu  sync.Mutex
	wbuf []byte
	werr error

	// Relay telemetry: frames this connection sourced, and how long they
	// spent resident in the hub, from the start of the payload read to
	// the end of the pump's next flush, by which they are on their
	// destination's stream. Atomics: the pump goroutine writes,
	// RelayStats reads.
	relayBytes  atomic.Int64
	relayFrames atomic.Int64
	residencyNS atomic.Int64
}

// NewHub creates a hub for an m-worker job and starts serving on ln
// (closing ln stops the accept loop; the caller owns ln's lifetime via
// Hub.Close). The CostModel argument is ignored: ROADMAP direction 4(d)
// deletes it.
func NewHub(m int, _ comm.CostModel, ln net.Listener) *Hub {
	h := &Hub{
		m:        m,
		ln:       ln,
		log:      slog.New(slog.DiscardHandler),
		hosts:    make([]*hubConn, m),
		conns:    make(map[*hubConn]bool),
		open:     make(map[net.Conn]bool),
		results:  make(map[int][]byte),
		resultAt: make(map[int]time.Time),
		settled:  make([]bool, m),
		allIn:    make(chan struct{}),
	}
	h.cond = sync.NewCond(&h.mu)
	h.wg.Add(1)
	go h.acceptLoop()
	return h
}

func (h *Hub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			conn.Close()
			return
		}
		h.open[conn] = true
		h.wg.Add(1)
		h.mu.Unlock()
		go h.serveConn(conn)
	}
}

// serveConn registers a worker process (hello) and then pumps its
// messages until the connection ends.
func (h *Hub) serveConn(conn net.Conn) {
	defer func() {
		h.mu.Lock()
		delete(h.open, conn)
		h.mu.Unlock()
		h.wg.Done()
	}()
	// The reader exists before the hello is read: a worker's hello and
	// its first messages can share one read.
	hc := &hubConn{conn: conn,
		rd:   msgReader{conn: conn, buf: make([]byte, connBufSize)},
		wbuf: make([]byte, 0, connBufSize)}
	hubBuffered.Add(2 * connBufSize)
	defer func() { hubBuffered.Add(-int64(len(hc.rd.buf) + connBufSize)) }()
	kind, a, b, n, err := hc.rd.header()
	if err != nil || kind != kHello || n != 0 {
		conn.Close()
		return
	}
	hc.lo, hc.hi = int(a), int(b)
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
	h.joined += hc.hi - hc.lo + 1
	// Replay the arrivals kept so far. It happens under h.mu, as the
	// keeping does (Hub.arrival), so every arrival reaches this process
	// exactly once: replayed here or relayed by its sender's pump. No one
	// else can stage on hc before h.mu is released, so the arrivals are
	// only appended here; the flush below writes them.
	hc.wmu.Lock()
	for _, e := range h.early {
		hc.wbuf = append(appendHeader(hc.wbuf, kArrive, uint16(e.from.hi-e.from.lo+1), uint16(e.from.lo), len(e.sum)), e.sum[:]...)
	}
	hc.wmu.Unlock()
	if h.joined == h.m {
		h.early = nil
	}
	aborted, reason := h.aborted, h.reason
	h.cond.Broadcast()
	h.mu.Unlock()
	h.log.Debug("worker joined", "workers", fmt.Sprintf("%d-%d", hc.lo, hc.hi))
	if err := hc.flush(); err != nil {
		h.targetLost(hc, err)
	}
	if aborted {
		// the abort broadcast went out before this process connected: tell
		// it directly, or it would wait on a barrier nobody else reaches
		_ = hc.send(kAbort, 0, 0, []byte(reason))
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
// clean shutdown (result delivered, then EOF). Messages for other
// workers are staged in their connections' writers and flushed together
// before any read that could block, so a batch the worker wrote at once
// is relayed at once.
func (h *Hub) pump(hc *hubConn) error {
	// dirty holds the connections with forwards staged since the last
	// flush; staged counts the frames among them and stagedAt sums the
	// instants (since epoch) their payload reads began, which is all the
	// residency total needs. peers is the arrival relay's scratch.
	var dirty, peers []*hubConn
	var staged, stagedAt int64
	epoch := time.Now()
	flush := func() {
		for _, to := range dirty {
			if err := to.flush(); err != nil {
				h.targetLost(to, err)
			}
		}
		dirty = dirty[:0]
		if staged > 0 {
			hc.residencyNS.Add(staged*int64(time.Since(epoch)) - stagedAt)
			staged, stagedAt = 0, 0
		}
	}
	defer flush()
	// A read from the socket may block, and nothing staged may wait on
	// this worker: flush before each.
	rd := &hc.rd
	rd.beforeRead = flush
	for {
		kind, a, b, n, err := rd.header()
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
			// The whole payload is read before anything is written, so a
			// failed forward never desynchronizes the sender's stream.
			t0 := time.Since(epoch)
			p, err := rd.payload(n)
			if err != nil {
				return err
			}
			// Stage the frame for the process hosting worker dst. A write
			// that fails means the destination's connection is broken —
			// that worker's failure, not the sender's: record it (first
			// failure wins), abort, and keep pumping the sender so its own
			// result still gets through.
			h.mu.Lock()
			h.dataBytes += int64(n)
			to := h.hosts[dst]
			h.mu.Unlock()
			if to == nil {
				return fmt.Errorf("frame for unjoined worker %d", dst)
			}
			dirty = h.forward(to, dirty, kFrame, a, b, p)
			hc.relayBytes.Add(int64(n))
			hc.relayFrames.Add(1)
			staged++
			stagedAt += int64(t0)
		case kArrive:
			// A process arrives for exactly the workers it hosts, or it
			// could complete a crossing its peers never reached. Past the
			// sum, the payload is the receivers' to check.
			if int(a) != hc.hi-hc.lo+1 || n < 8 {
				return fmt.Errorf("bad arrival: %d workers, %d-byte payload", a, n)
			}
			p, err := rd.payload(n)
			if err != nil {
				return err
			}
			if peers, err = h.arrival(hc, p, peers[:0]); err != nil {
				return err
			}
			// Staged behind the frames this process sent each peer, so
			// the relayed arrival proves them delivered.
			for _, to := range peers {
				dirty = h.forward(to, dirty, kArrive, a, uint16(hc.lo), p)
			}
		case kAbort:
			reason, err := rd.payload(n)
			if err != nil {
				return err
			}
			h.mu.Lock()
			h.abortLocked(fmt.Sprintf("workers %d-%d: %s", hc.lo, hc.hi, reason))
			h.mu.Unlock()
		case kSamples:
			p, err := rd.payload(n)
			if err != nil {
				return err
			}
			h.mu.Lock()
			fn := h.samplesFn
			h.mu.Unlock()
			if fn != nil {
				fn(p)
			}
		case kResult:
			// the one payload that is kept: read into memory of its own
			blob := make([]byte, n)
			if err := rd.readInto(blob); err != nil {
				return err
			}
			h.mu.Lock()
			h.results[hc.lo] = blob
			h.resultAt[hc.lo] = time.Now()
			if !hc.gotResult {
				if h.nIn += hc.hi - hc.lo + 1; h.nIn == h.m {
					close(h.allIn)
				}
			}
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

// OnSamples installs a handler for the opaque in-flight sample batches
// workers ship with Client.SendSamples (a batch arrives with the next
// thing its process writes, at most one barrier crossing after it was
// queued, and always before that process's result is recorded). The
// handler runs on hub pump goroutines,
// so it must be safe for concurrent use and quick, and the payload is
// the pump's scratch: valid only until the handler returns. Call before
// workers connect.
func (h *Hub) OnSamples(fn func(payload []byte)) {
	h.mu.Lock()
	h.samplesFn = fn
	h.mu.Unlock()
}

// RelayStats reports, per worker process, the hub relay traffic it
// sourced: the volume of its frames for workers in other processes
// (co-hosted frames never reach the hub) and their cumulative hub
// residency, read to flushed onto the destination's stream.
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
// far: the job's cross-process exchange volume — its network bytes less
// what co-hosted workers sent each other, which stays inside their
// process.
func (h *Hub) DataBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dataBytes
}

// msgReader reads a worker connection's messages through one buffer and
// hands payloads out in place, so a relayed frame is never copied on
// its way in. The read for a header takes whatever the socket has, up
// to connBufSize: a batch of small messages costs one read. The rest of
// a payload that read cut short is read to the byte, so the message
// after a large one starts the buffer afresh instead of leaving a tail
// to be moved. The buffer grows to the largest message seen.
type msgReader struct {
	conn       io.Reader
	buf        []byte
	r, w       int    // buf[r:w] is read but not consumed
	beforeRead func() // if set, runs before every read from conn
}

// header consumes and validates the next message header. It returns
// io.EOF only when the stream ends on a message boundary.
func (m *msgReader) header() (kind uint8, a, b uint16, n int, err error) {
	if err = m.fill(headerLen, true); err != nil {
		return 0, 0, 0, 0, err
	}
	m.r += headerLen
	return parseHeader(m.buf[m.r-headerLen : m.r])
}

// payload consumes an n-byte payload and returns it in place: valid
// until the next call on the reader.
func (m *msgReader) payload(n int) ([]byte, error) {
	if err := m.fill(n, false); err != nil {
		return nil, err
	}
	m.r += n
	return m.buf[m.r-n : m.r], nil
}

// readInto consumes a len(dst)-byte payload into dst, for a payload
// that outlives the next read: what is buffered is copied, the rest
// read straight into dst.
func (m *msgReader) readInto(dst []byte) error {
	n := copy(dst, m.buf[m.r:m.w])
	m.r += n
	if n == len(dst) {
		return nil
	}
	if m.beforeRead != nil {
		m.beforeRead()
	}
	_, err := io.ReadFull(m.conn, dst[n:])
	return err
}

// fill makes the next n bytes available at buf[r:]. greedy reads ahead
// past them.
func (m *msgReader) fill(n int, greedy bool) error {
	if m.w-m.r >= n {
		return nil
	}
	if m.r+n > len(m.buf) {
		// No room behind r: move the unread bytes to the front, of a
		// larger buffer if need be — with room for a header too, so the
		// next message of this size fits where its header fill lands it.
		buf := m.buf
		if n+headerLen > len(buf) {
			buf = make([]byte, max(n+headerLen, 2*len(buf)))
			hubBuffered.Add(int64(len(buf) - len(m.buf)))
		}
		m.w = copy(buf, m.buf[m.r:m.w])
		m.r, m.buf = 0, buf
	} else if m.r == m.w {
		m.r, m.w = 0, 0
	}
	limit := m.r + n
	if greedy {
		limit = min(len(m.buf), m.w+connBufSize)
	}
	for m.w-m.r < n {
		if m.beforeRead != nil {
			m.beforeRead()
		}
		k, err := m.conn.Read(m.buf[m.w:limit])
		m.w += k
		if err != nil && m.w-m.r < n {
			if err == io.EOF && !(greedy && m.w == m.r) {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// stage appends one message to the worker's write buffer. It reaches
// the wire with the next flush or send on this connection, or at once
// when the payload does not fit the buffer: then everything staged, the
// header and the payload in place go out as one gathered write, so a
// large frame is never copied.
func (hc *hubConn) stage(kind uint8, a, b uint16, payload []byte) error {
	hc.wmu.Lock()
	defer hc.wmu.Unlock()
	return hc.stageLocked(kind, a, b, payload)
}

func (hc *hubConn) stageLocked(kind uint8, a, b uint16, payload []byte) error {
	if cap(hc.wbuf)-len(hc.wbuf) < headerLen {
		hc.flushLocked()
	}
	if hc.werr != nil {
		return hc.werr
	}
	hc.wbuf = appendHeader(hc.wbuf, kind, a, b, len(payload))
	if len(payload) <= cap(hc.wbuf)-len(hc.wbuf) {
		hc.wbuf = append(hc.wbuf, payload...)
		return nil
	}
	bufs := net.Buffers{hc.wbuf, payload}
	_, hc.werr = bufs.WriteTo(hc.conn)
	hc.wbuf = hc.wbuf[:0]
	return hc.werr
}

// flush writes out whatever is staged for the worker.
func (hc *hubConn) flush() error {
	hc.wmu.Lock()
	defer hc.wmu.Unlock()
	return hc.flushLocked()
}

func (hc *hubConn) flushLocked() error {
	if hc.werr == nil && len(hc.wbuf) > 0 {
		_, hc.werr = hc.conn.Write(hc.wbuf)
	}
	hc.wbuf = hc.wbuf[:0]
	return hc.werr
}

// send writes one message through at once, behind anything staged
// before it: an abort must not wait for a pump's next flush.
func (hc *hubConn) send(kind uint8, a, b uint16, payload []byte) error {
	hc.wmu.Lock()
	defer hc.wmu.Unlock()
	if err := hc.stageLocked(kind, a, b, payload); err != nil {
		return err
	}
	return hc.flushLocked()
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

// forward stages one message on to and returns dirty with to in it; a
// failed stage is to's failure, not the sender's.
func (h *Hub) forward(to *hubConn, dirty []*hubConn, kind uint8, a, b uint16, p []byte) []*hubConn {
	if err := to.stage(kind, a, b, p); err != nil {
		h.targetLost(to, err)
		return dirty
	}
	if !slices.Contains(dirty, to) {
		dirty = append(dirty, to)
	}
	return dirty
}

// arrival appends to peers the connections hc's arrival with value sum
// p is relayed to: every other one registered. Until the whole party
// has joined it also keeps the arrival for the processes still to
// register, in the same critical section, so each gets it exactly once.
// A process cannot arrive twice before then — it cannot finish the
// set-up crossing without everyone's arrival — so a second arrival is
// an error, and so is one with posts: the set-up crossing gathers none.
func (h *Hub) arrival(hc *hubConn, p []byte, peers []*hubConn) ([]*hubConn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.joined < h.m {
		for _, e := range h.early {
			if e.from == hc {
				return peers, fmt.Errorf("workers %d-%d arrived twice before the party joined", hc.lo, hc.hi)
			}
		}
		if len(p) != 8 {
			return peers, fmt.Errorf("workers %d-%d arrived with a %d-byte payload before the party joined", hc.lo, hc.hi, len(p))
		}
		h.early = append(h.early, earlyArrival{from: hc, sum: [8]byte(p)})
	}
	for to := range h.conns {
		if to != hc {
			peers = append(peers, to)
		}
	}
	return peers, nil
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
// connection is doomed regardless. A closed hub sends nothing: Close
// closes every connection.
func (h *Hub) abortLocked(reason string) {
	if h.aborted {
		return
	}
	h.aborted, h.reason = true, reason
	h.log.Warn("job aborted", "reason", reason)
	h.cond.Broadcast()
	if h.closed {
		return
	}
	conns := make([]*hubConn, 0, len(h.conns))
	for hc := range h.conns {
		conns = append(conns, hc)
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for _, hc := range conns {
			hc.wmu.Lock()
			hc.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			_ = hc.stageLocked(kAbort, 0, 0, []byte(reason))
			_ = hc.flushLocked()
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
		if h.joined == h.m {
			return nil
		}
		if h.aborted {
			return fmt.Errorf("netcomm: job aborted while waiting for workers")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("netcomm: %d of %d workers joined within %v", h.joined, h.m, timeout)
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

// ResultsIn is closed once every worker's result has arrived, so a
// caller can start on the results while it waits for something else;
// WaitResults is still what collects them.
func (h *Hub) ResultsIn() <-chan struct{} { return h.allIn }

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

// Close shuts the hub down: the listener stops accepting, every
// accepted connection is closed, and Close returns once every goroutine
// the hub started has exited, its connection buffers released from the
// gauge.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	conns := make([]net.Conn, 0, len(h.open))
	for conn := range h.open {
		conns = append(conns, conn)
	}
	h.mu.Unlock()
	h.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	h.wg.Wait()
}
