// Package netcomm is the socket transport of the exchange fabric: the
// same comm.Fabric contract the in-process zero-copy implementation
// satisfies, carried over TCP or Unix sockets so the workers of one job
// can live in separate processes (the paper's actual deployment shape —
// Fig. 2's shared-nothing workers exchanging binary buffers).
//
// The control plane is a star: every worker process holds one
// connection to a Hub (the job coordinator) carrying join, the
// message-based distributed barrier (a worker's arrival folds its
// AllReduce contribution; the hub releases a crossing by broadcasting
// the aggregate once all M workers arrived), abort/cancel, per-round
// flush accounting for the cost model, and each process's opaque
// result blob.
//
// The data plane — one frame per (src, dst) pair per exchange round,
// empty buffers skipped on the wire — rides the same star: the hub
// routes each frame to the destination's connection. A worker's Flush
// is one gathered write — its frames for workers in other processes
// followed by the flush report — and frames for a worker of its own
// process are staged in memory and never leave it. The hub coalesces
// too: each connection has one buffered writer, forwards are staged in
// the destination's and flushed once per batch the pump read, and
// in-flight samples ride whatever the process writes next. Ordering
// makes delivery implicit: a worker writes its round's frames before its
// barrier arrival, the hub stages them in a destination's writer before
// that destination's release (one writer, one lock, flushed with the
// release at the latest), so when a client observes the post-flush
// release, every frame of the round is already staged — no per-frame
// acks.
//
// Receive memory needs no window: the engines' round protocol (Flush,
// crossing, In, crossing, Release) keeps every sender at most one round
// ahead of its slowest receiver, so a receiver's pending buffers hold at
// most one round's frames.
package netcomm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/barrier"
	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/ser"
)

// Message kinds of the wire protocol. Every message is
//
//	kind uint8 | a uint16 | b uint16 | n uint32 | payload [n]byte
//
// little-endian; the meaning of a and b depends on the kind.
const (
	kHello   = 1 // worker→hub: a,b = inclusive hosted worker range
	kFrame   = 2 // worker↔hub: a = src worker, b = dst worker, payload = round buffer
	kFlush   = 3 // worker→hub: a = src worker, payload = net,local byte counts (8+8)
	kArrive  = 4 // worker→hub: a = folded local arrivals, payload = value sum (8)
	kRelease = 5 // hub→worker: payload = crossing aggregate (8)
	kAbort   = 6 // either way: payload = reason string
	kResult  = 7 // worker→hub: a,b = worker range, payload = opaque result blob
	kSamples = 8 // worker→hub: a,b = worker range, payload = encoded in-flight superstep samples (see Client.SendSamples)
)

// Data-plane names accepted by Config.DataPlane and
// workerproc.JobSpec.DataPlane. Every one of them runs the hub relay.
//
// Deprecated: the names only keep old callers compiling; ROADMAP
// direction 4(d) deletes them with the bench harness rows that still
// name them.
const (
	DataPlaneHub         = "hub"
	DataPlaneP2P         = "p2p"
	DataPlaneP2PAdaptive = "p2p-adaptive"
)

// ConnStat is the row type of Client.ConnStats.
//
// Deprecated: no plane keeps per-connection windows; ROADMAP direction
// 4(d) deletes it.
type ConnStat struct {
	RecvWindow int64
}

const headerLen = 9

// maxPayload bounds a declared payload length; a peer claiming more is
// corrupt or hostile and the connection is dropped instead of letting
// the length drive an allocation.
const maxPayload = 1 << 30

// connBufSize is the size of the two buffers the hub keeps per worker
// connection, one to read and one to write through: a round's control
// messages and small frames cost one read or write, not one per
// message. The hub relays payloads in place from its read buffer, so
// reading far ahead costs it nothing.
const connBufSize = 64 << 10

// clientReadBuf is the buffer a client reads its hub connection through.
// Every byte read ahead here is copied once more, into the pending
// buffer of the worker it is for, so the buffer is kept near the size
// whose copy costs what the read it saves does; the rest of a larger
// frame is read straight into place.
const clientReadBuf = 16 << 10

// putHeader fills hdr[:headerLen] with one message header.
func putHeader(hdr []byte, kind uint8, a, b uint16, n int) {
	hdr[0] = kind
	binary.LittleEndian.PutUint16(hdr[1:], a)
	binary.LittleEndian.PutUint16(hdr[3:], b)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(n))
}

// appendHeader appends one message header to dst.
func appendHeader(dst []byte, kind uint8, a, b uint16, n int) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, headerLen)...)
	putHeader(dst[at:], kind, a, b, n)
	return dst
}

// readHeader reads and validates one message header.
func readHeader(r io.Reader) (kind uint8, a, b uint16, n int, err error) {
	var hdr [headerLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, 0, err
	}
	return parseHeader(hdr[:])
}

// parseHeader decodes and validates the message header in
// hdr[:headerLen].
func parseHeader(hdr []byte) (kind uint8, a, b uint16, n int, err error) {
	kind = hdr[0]
	a = binary.LittleEndian.Uint16(hdr[1:])
	b = binary.LittleEndian.Uint16(hdr[3:])
	n = int(binary.LittleEndian.Uint32(hdr[5:]))
	if kind < kHello || kind > kSamples {
		return 0, 0, 0, 0, fmt.Errorf("netcomm: unknown message kind %d", kind)
	}
	if n > maxPayload {
		return 0, 0, 0, 0, fmt.Errorf("netcomm: message claims %d-byte payload", n)
	}
	return kind, a, b, n, nil
}

// Client is the worker-process side of the socket fabric. It hosts a
// contiguous range of the job's workers and implements comm.Fabric for
// them; its Barrier is the wire barrier coordinated by the hub.
type Client struct {
	m      int
	lo, hi int
	conn   net.Conn

	// wmu serializes writes on the hub connection. Every write is one
	// gathered write led by the samples queued since the previous one;
	// wbufs is its reusable vector.
	wmu     sync.Mutex
	samples []byte
	wbufs   net.Buffers

	flows *obs.FlowAccum // optional flow matrix, fed at the flush seam

	bar *wireBarrier
	eps []*clientEndpoint

	smu       sync.Mutex // guards the local stats counters
	netBytes  int64
	locBytes  int64
	rounds    int64
	peerBytes []int64 // per destination worker id

	cmu    sync.Mutex
	closed bool
}

// Config selects how a worker process joins a job.
type Config struct {
	// Network and Addr locate the hub ("tcp" or "unix").
	Network, Addr string
	// Lo, Hi is the inclusive worker range this process hosts; M is the
	// job-wide worker count.
	Lo, Hi, M int
	// DataPlane may be "" or any of the DataPlane* names; every one of
	// them relays frames through the hub. Any other value is an error.
	//
	// Deprecated: ROADMAP direction 4(d) deletes it.
	DataPlane string
	// Flows, if non-nil, receives one Record per non-empty (src, dst)
	// flush from this process's hosted workers — the per-flow half of
	// the job's flow matrix. Nil costs one branch per destination.
	Flows *obs.FlowAccum
}

// Dial connects to a hub at addr over network ("tcp" or "unix") and
// announces this process as the host of workers lo..hi (inclusive) of
// an m-worker job, with frames relayed through the hub.
func Dial(network, addr string, lo, hi, m int) (*Client, error) {
	return DialConfig(Config{Network: network, Addr: addr, Lo: lo, Hi: hi, M: m})
}

// DialConfig connects to a hub per cfg.
func DialConfig(cfg Config) (*Client, error) {
	lo, hi, m := cfg.Lo, cfg.Hi, cfg.M
	if lo < 0 || hi < lo || hi >= m {
		return nil, fmt.Errorf("netcomm: bad worker range %d..%d of %d", lo, hi, m)
	}
	switch cfg.DataPlane {
	case "", DataPlaneHub, DataPlaneP2P, DataPlaneP2PAdaptive:
	default:
		return nil, fmt.Errorf("netcomm: unknown data plane %q", cfg.DataPlane)
	}
	conn, err := net.Dial(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("netcomm: dial hub: %w", err)
	}
	c := &Client{m: m, lo: lo, hi: hi, conn: conn, peerBytes: make([]int64, m), flows: cfg.Flows}
	if c.flows != nil {
		c.flows.SetPlane("hub")
	}
	c.bar = &wireBarrier{c: c, k: hi - lo + 1}
	c.bar.cond = sync.NewCond(&c.bar.mu)
	c.eps = make([]*clientEndpoint, hi-lo+1)
	for i := range c.eps {
		ep := &clientEndpoint{c: c, id: lo + i,
			out:     make([]*ser.Buffer, m),
			deliver: make([]*ser.Buffer, m),
			pending: make([]*ser.Buffer, m),
			sent:    make([]int64, m),
			hdrs:    make([]byte, m*headerLen+16),
		}
		for d := 0; d < m; d++ {
			ep.out[d] = ser.NewBuffer(1024)
			ep.deliver[d] = ser.NewBuffer(1024)
			ep.pending[d] = ser.NewBuffer(1024)
		}
		c.eps[i] = ep
	}
	if err := c.send(kHello, uint16(lo), uint16(hi), nil); err != nil {
		c.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// send writes one message on the hub connection.
func (c *Client) send(kind uint8, a, b uint16, payload []byte) error {
	var hdr [headerLen]byte
	putHeader(hdr[:], kind, a, b, len(payload))
	return c.write(hdr[:], payload)
}

// write sends msgs on the hub connection as one gathered write, led by
// whatever SendSamples queued since the previous write. The caller's
// slices must stay untouched until it returns.
func (c *Client) write(msgs ...[]byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	bufs := c.wbufs[:0]
	if len(c.samples) > 0 {
		bufs = append(bufs, c.samples)
	}
	bufs = append(bufs, msgs...)
	c.wbufs = bufs[:0] // keep the grown vector; WriteTo consumes its copy
	_, err := bufs.WriteTo(c.conn)
	c.samples = c.samples[:0]
	return err
}

// readLoop demuxes the hub connection: frames are staged into the
// destination endpoint's pending buffers, releases advance the wire
// barrier, aborts release everything.
func (c *Client) readLoop() {
	// Reads go through one buffer: a round's small frames and the release
	// that follows them usually arrive in a single read. Nothing here may
	// assume a read ends on a message boundary.
	br := bufio.NewReaderSize(c.conn, clientReadBuf)
	for {
		kind, a, b, n, err := readHeader(br)
		if err != nil {
			c.cmu.Lock()
			closed := c.closed
			c.cmu.Unlock()
			if !closed {
				c.bar.abortLocal(fmt.Errorf("netcomm: connection to coordinator lost: %w", err))
			}
			return
		}
		switch kind {
		case kFrame:
			dst := int(b)
			if dst < c.lo || dst > c.hi || int(a) >= c.m {
				c.bar.abortLocal(fmt.Errorf("netcomm: misrouted frame %d->%d", a, b))
				return
			}
			ep := c.eps[dst-c.lo]
			ep.mu.Lock()
			_, err = io.ReadFull(br, ep.pending[a].Extend(n))
			ep.mu.Unlock()
			if err != nil {
				c.bar.abortLocal(fmt.Errorf("netcomm: truncated frame: %w", err))
				return
			}
		case kRelease:
			var v [8]byte
			if _, err := io.ReadFull(br, v[:]); err != nil {
				c.bar.abortLocal(fmt.Errorf("netcomm: truncated release: %w", err))
				return
			}
			c.bar.release(binary.LittleEndian.Uint64(v[:]))
		case kAbort:
			reason := make([]byte, n)
			io.ReadFull(br, reason)
			c.bar.abortLocal(fmt.Errorf("netcomm: job aborted: %s", reason))
			return
		default:
			c.bar.abortLocal(fmt.Errorf("netcomm: unexpected message kind %d from hub", kind))
			return
		}
	}
}

// SendResult ships the process's opaque result blob to the hub (the
// graphworker protocol's partial result; see internal/workerproc).
func (c *Client) SendResult(payload []byte) error {
	return c.send(kResult, uint16(c.lo), uint16(c.hi), payload)
}

// SendSamples queues an opaque batch of in-flight superstep samples for
// the hub (the live-events feed; see Hub.OnSamples). It writes nothing
// itself: the batch rides in front of whatever this process writes next
// — a flush, a barrier arrival, the result — so the feed lags by at
// most one exchange round and costs no write of its own. Loss-tolerant
// by design: the same samples travel again in the final result blob, so
// a batch still queued when the job unwinds is simply dropped.
func (c *Client) SendSamples(payload []byte) {
	c.wmu.Lock()
	c.samples = appendHeader(c.samples, kSamples, uint16(c.lo), uint16(c.hi), len(payload))
	c.samples = append(c.samples, payload...)
	c.wmu.Unlock()
}

// ConnStats returns nil: the hub relay has no per-connection windows.
//
// Deprecated: ROADMAP direction 4(d) deletes it.
func (c *Client) ConnStats() []ConnStat { return nil }

// Err returns the transport-level abort root cause this client
// observed, if any (a lost coordinator connection, a misrouted frame,
// the hub's abort reason). Workers log it next to the generic
// barrier-abort their engines report, so the transport detail is not
// lost.
func (c *Client) Err() error {
	c.bar.mu.Lock()
	defer c.bar.mu.Unlock()
	return c.bar.abortErr
}

// NumWorkers implements comm.Fabric.
func (c *Client) NumWorkers() int { return c.m }

// LocalWorkers implements comm.Fabric.
func (c *Client) LocalWorkers() []int {
	ids := make([]int, c.hi-c.lo+1)
	for i := range ids {
		ids[i] = c.lo + i
	}
	return ids
}

// Endpoint implements comm.Fabric.
func (c *Client) Endpoint(id int) comm.Endpoint { return c.eps[id-c.lo] }

// Barrier implements comm.Fabric.
func (c *Client) Barrier() barrier.Barrier { return c.bar }

// Stats implements comm.Fabric: the process-local view (bytes this
// process sent, split per destination worker; simulated network time
// lives on the hub's cost model).
func (c *Client) Stats() comm.Stats {
	c.smu.Lock()
	defer c.smu.Unlock()
	return comm.Stats{
		NetworkBytes: c.netBytes,
		LocalBytes:   c.locBytes,
		Rounds:       c.rounds,
		PeerBytes:    append([]int64(nil), c.peerBytes...),
	}
}

// Close implements comm.Fabric: it closes the hub connection.
func (c *Client) Close() error {
	c.cmu.Lock()
	c.closed = true
	c.cmu.Unlock()
	return c.conn.Close()
}

// clientEndpoint is one hosted worker's handle. Incoming frames are
// double-buffered: the reader goroutine stages into pending, and the
// first In call after a Flush swaps pending into deliver — at that
// point the post-flush release has been observed, so the round's frames
// are complete, and no peer can be past its next flush yet.
type clientEndpoint struct {
	c  *Client
	id int

	out   []*ser.Buffer
	sent  []int64  // per-flush per-dst byte scratch
	batch [][]byte // per-flush scratch: the messages of the round's one hub write
	hdrs  []byte   // backing for batch's frame headers and the trailing flush report

	mu       sync.Mutex
	deliver  []*ser.Buffer
	pending  []*ser.Buffer
	flushSeq uint64
	swapSeq  uint64
}

// stage copies one frame from a co-hosted src worker into the pending
// buffer (the same staging the read loop does for remote ones).
func (ep *clientEndpoint) stage(src int, payload []byte) {
	ep.mu.Lock()
	copy(ep.pending[src].Extend(len(payload)), payload)
	ep.mu.Unlock()
}

// Out implements comm.Endpoint.
func (ep *clientEndpoint) Out(dst int) *ser.Buffer { return ep.out[dst] }

// Flush implements comm.Endpoint: every non-empty off-worker buffer
// becomes one frame. A co-hosted destination's is staged in-process and
// never touches a socket. A remote one's goes into the round's one
// gathered write to the hub — the frames, then the 16-byte flush
// report. The report counts co-hosted bytes like any others: round
// accounting and the simulated cost model live on the hub. The loopback
// buffer stays local (zero-copy, as in the in-process fabric).
func (ep *clientEndpoint) Flush() error {
	c := ep.c
	var netB, locB int64
	batch := ep.batch[:0]
	for dst := 0; dst < c.m; dst++ {
		b := ep.out[dst]
		n := b.Len()
		if c.flows != nil && n > 0 {
			c.flows.Record(ep.id, dst, int64(n))
		}
		if dst == ep.id {
			locB += int64(n)
			continue
		}
		netB += int64(n)
		ep.sent[dst] = int64(n)
		if n == 0 {
			continue
		}
		if dst >= c.lo && dst <= c.hi {
			c.eps[dst-c.lo].stage(ep.id, b.Bytes())
			continue
		}
		hdr := ep.hdrs[len(batch)/2*headerLen:][:headerLen]
		putHeader(hdr, kFrame, uint16(ep.id), uint16(dst), n)
		batch = append(batch, hdr, b.Bytes())
	}
	report := ep.hdrs[len(ep.hdrs)-headerLen-16:]
	putHeader(report, kFlush, uint16(ep.id), 0, 16)
	binary.LittleEndian.PutUint64(report[headerLen:], uint64(netB))
	binary.LittleEndian.PutUint64(report[headerLen+8:], uint64(locB))
	batch = append(batch, report)
	ep.batch = batch[:0]
	if err := c.write(batch...); err != nil {
		c.bar.abortLocal(err)
		return fmt.Errorf("netcomm: send flush: %w", err)
	}
	// Only now may the sent buffers be recycled: the write referenced
	// them in place.
	for dst, b := range ep.out {
		if dst != ep.id {
			b.Reset()
		}
	}
	ep.mu.Lock()
	ep.flushSeq++
	ep.mu.Unlock()
	c.smu.Lock()
	c.netBytes += netB
	c.locBytes += locB
	for dst, n := range ep.sent {
		c.peerBytes[dst] += n
	}
	if ep.id == c.lo {
		c.rounds++
	}
	c.smu.Unlock()
	return nil
}

// In implements comm.Endpoint. The pre-swap frames are complete by
// ordering: the release followed them on the same stream.
func (ep *clientEndpoint) In(src int) *ser.Buffer {
	if src == ep.id {
		return ep.out[ep.id]
	}
	ep.mu.Lock()
	if ep.swapSeq < ep.flushSeq {
		ep.deliver, ep.pending = ep.pending, ep.deliver
		for i, b := range ep.pending {
			if i != ep.id {
				b.Reset()
			}
		}
		ep.swapSeq = ep.flushSeq
	}
	b := ep.deliver[src]
	ep.mu.Unlock()
	return b
}

// Release implements comm.Endpoint: only the loopback buffer needs
// recycling here — off-process buffers were reset at Flush and incoming
// buffers are recycled by the swap.
func (ep *clientEndpoint) Release() {
	ep.out[ep.id].Reset()
}

// wireBarrier is the client half of the distributed barrier: local
// workers fold their arrivals into one kArrive message; the hub's
// kRelease (carrying the job-wide AllReduce aggregate) advances the
// release counter and wakes the waiters of that crossing.
type wireBarrier struct {
	c    *Client
	k    int // local party size
	mu   sync.Mutex
	cond *sync.Cond

	gen      uint64 // local crossings fully arrived
	arrived  int    // local arrivals of the current crossing
	acc      uint64 // local value sum of the current crossing
	released uint64 // releases observed
	vals     [8]uint64

	aborted  bool
	abortErr error
}

// Wait implements barrier.Barrier.
func (b *wireBarrier) Wait() bool {
	_, ok := b.AllReduce(0)
	return ok
}

// AllReduce implements barrier.Barrier.
func (b *wireBarrier) AllReduce(v uint64) (uint64, bool) {
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		return 0, false
	}
	gen := b.gen
	b.acc += v
	b.arrived++
	var sendAcc uint64
	sendNow := false
	if b.arrived == b.k {
		sendNow, sendAcc = true, b.acc
		b.arrived = 0
		b.acc = 0
		b.gen++
	}
	b.mu.Unlock()
	if sendNow {
		var p [8]byte
		binary.LittleEndian.PutUint64(p[:], sendAcc)
		if err := b.c.send(kArrive, uint16(b.k), 0, p[:]); err != nil {
			b.abortLocal(fmt.Errorf("netcomm: send arrive: %w", err))
			return 0, false
		}
	}
	b.mu.Lock()
	for b.released <= gen && !b.aborted {
		b.cond.Wait()
	}
	val := b.vals[(gen+1)&7]
	ok := !b.aborted
	b.mu.Unlock()
	return val, ok
}

// release records a crossing release from the hub.
func (b *wireBarrier) release(v uint64) {
	b.mu.Lock()
	b.released++
	b.vals[b.released&7] = v
	b.cond.Broadcast()
	b.mu.Unlock()
}

// abortLocal marks the barrier aborted (first reason wins) and wakes
// every waiter.
func (b *wireBarrier) abortLocal(err error) {
	b.mu.Lock()
	if !b.aborted {
		b.aborted = true
		b.abortErr = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Abort implements barrier.Barrier: a local worker failed. The hub is
// told (best effort) so it can release every other process.
func (b *wireBarrier) Abort() {
	b.abortLocal(fmt.Errorf("netcomm: aborted by local worker"))
	_ = b.c.send(kAbort, 0, 0, []byte("worker failure"))
}

// Aborted implements barrier.Barrier.
func (b *wireBarrier) Aborted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.aborted
}
