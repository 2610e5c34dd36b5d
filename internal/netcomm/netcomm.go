// Package netcomm is the socket transport of the exchange fabric: the
// same comm.Fabric contract the in-process zero-copy implementation
// satisfies, carried over TCP or Unix sockets so the workers of one job
// can live in separate processes (the paper's actual deployment shape —
// Fig. 2's shared-nothing workers exchanging binary buffers).
//
// The control plane is a star: every worker process holds one
// connection to a Hub (the job coordinator) carrying join, the
// message-based distributed barrier, abort/cancel, and each process's
// opaque result blob. The hub does not decide barrier crossings: it
// relays each process's arrival (its workers' folded AllReduce
// contribution) to every other process, and each process counts the
// arrivals of a crossing itself — a dissemination barrier over the
// star. A crossing is complete once its arrivals speak for all M
// workers, and its reduce value is their sum, the same in every
// process. Like the in-process fabric it counts nothing: a job's bytes,
// rounds and flows are counted by the superstep driver (internal/bsp),
// above the Fabric seam.
//
// The data plane — one frame per (src, dst) pair per exchange round,
// empty buffers skipped on the wire — rides the same star: the hub
// routes each frame to the destination's connection. A process makes
// one write per barrier crossing: Flush only queues a worker's frames
// for workers in other processes (frames for a worker of its own
// process are staged in memory and never leave it), and the process's
// last local arrival writes the queued frames, any queued samples and
// the arrival itself in one gathered write. The hub coalesces too: each
// connection has one buffered writer, and forwards are staged in the
// destination's and flushed once per batch the pump read. Ordering
// makes delivery implicit: a process's frames precede its arrival on
// its stream, and the hub stages both, in that order, in each
// destination's one writer — so a relayed arrival proves its sender's
// frames are already in the receiver's pending buffers, and a process
// that has seen every other process's arrival holds the whole round:
// no per-frame acks, and the last process to arrive leaves the crossing
// without waiting on the hub. Arrivals the hub reads before the whole
// party has joined are kept (a process has one at most: it cannot
// finish the set-up crossing before every process has arrived at it)
// and replayed to each process that registers later. A process hosting
// all M workers completes every crossing by itself and writes no
// arrival.
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
	"repro/internal/ser"
)

// Message kinds of the wire protocol. Every message is
//
//	kind uint8 | a uint16 | b uint16 | n uint32 | payload [n]byte
//
// little-endian; the meaning of a and b depends on the kind. An
// arrival's payload is the 8-byte sum of its workers' AllReduce posts;
// at a Gather crossing each hosted worker's post follows, in worker
// order, as a part: a 0 byte for "absent", or a 1 byte and the post
// behind a uvarint length. A client checks the parts against the
// crossing's kind once the crossing completes.
const (
	kHello   = 1 // worker→hub: a,b = inclusive hosted worker range
	kFrame   = 2 // worker↔hub: a = src worker, b = dst worker, payload = round buffer
	kArrive  = 3 // worker↔hub: a = hosted worker count, payload = value sum (8), then on a gather crossing one part per hosted worker; relayed: b = the sender's first worker
	kAbort   = 5 // either way: payload = reason string
	kResult  = 6 // worker→hub: a,b = worker range, payload = opaque result blob
	kSamples = 7 // worker→hub: a,b = worker range, payload = encoded in-flight superstep samples (see Client.SendSamples)
)

// knownKind reports whether kind is one of the wire's message kinds;
// 4 and 8–15 are retired numbers, unknown like any other.
func knownKind(kind uint8) bool {
	return kind >= kHello && kind <= kSamples && kind != 4
}

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
	if !knownKind(kind) {
		return 0, 0, 0, 0, fmt.Errorf("netcomm: unknown message kind %d", kind)
	}
	if n > maxPayload {
		return 0, 0, 0, 0, fmt.Errorf("netcomm: message claims %d-byte payload", n)
	}
	return kind, a, b, n, nil
}

// Client is the worker-process side of the socket fabric. It hosts a
// contiguous range of the job's workers and implements comm.Fabric for
// them; its Barrier is the wire barrier, which counts the arrivals the
// hub relays.
type Client struct {
	m      int
	lo, hi int
	conn   net.Conn

	// wmu serializes writes on the hub connection and guards what waits
	// for the next one: the frames Flush queued (headers and the workers'
	// out buffers, in place; the vector is reused) and the samples
	// SendSamples queued. Every write is one gathered write of all of it.
	wmu     sync.Mutex
	frames  net.Buffers
	samples []byte
	arrival []byte

	bar *wireBarrier
	eps []*clientEndpoint

	cmu    sync.Mutex
	closed bool
	// reading counts readLoop, which Close waits for.
	reading sync.WaitGroup
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
	c := &Client{m: m, lo: lo, hi: hi, conn: conn}
	c.bar = &wireBarrier{c: c, k: hi - lo + 1, seen: make([]uint64, m),
		posts: [2][][]byte{make([][]byte, m), make([][]byte, m)}}
	c.bar.cond = sync.NewCond(&c.bar.mu)
	c.eps = make([]*clientEndpoint, hi-lo+1)
	for i := range c.eps {
		ep := &clientEndpoint{c: c, id: lo + i,
			out:     make([]*ser.Buffer, m),
			deliver: make([]*ser.Buffer, m),
			pending: make([]*ser.Buffer, m),
			hdrs:    make([]byte, m*headerLen),
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
	c.reading.Add(1)
	go c.readLoop()
	return c, nil
}

// send writes one message on the hub connection.
func (c *Client) send(kind uint8, a, b uint16, payload []byte) error {
	var hdr [headerLen]byte
	putHeader(hdr[:], kind, a, b, len(payload))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.write(hdr[:], payload)
}

// write sends msgs on the hub connection as one gathered write, led by
// whatever Flush and SendSamples queued since the previous write. The
// caller holds wmu.
func (c *Client) write(msgs ...[]byte) error {
	bufs := c.frames
	if len(c.samples) > 0 {
		bufs = append(bufs, c.samples)
	}
	bufs = append(bufs, msgs...)
	c.frames = bufs[:0] // keep the grown vector; WriteTo consumes its copy
	_, err := bufs.WriteTo(c.conn)
	c.samples = c.samples[:0]
	return err
}

// arrive makes this process's one write of a barrier crossing: the
// queued frames and samples, then the arrival of its k workers with
// their value sum and, at a Gather crossing, their k posts. A process
// hosting every worker has no one to tell: it writes only samples, if
// any are queued.
func (c *Client) arrive(k int, sum uint64, posts [][]byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if k == c.m {
		if len(c.samples) == 0 {
			return nil
		}
		return c.write()
	}
	buf := ser.FromBytes(append(c.arrival[:0], make([]byte, headerLen)...))
	buf.WriteUint64(sum)
	for _, p := range posts {
		if buf.WriteBool(p != nil); p != nil {
			buf.WriteBytes(p)
		}
	}
	c.arrival = buf.Bytes()
	putHeader(c.arrival, kArrive, uint16(k), 0, buf.Len()-headerLen)
	return c.write(c.arrival)
}

// readParts reads the count parts that follow an arrival's sum in p:
// nil for a plain arrival, otherwise one post per worker, nil where it
// is absent. The posts alias p.
func readParts(p []byte, count int) (posts [][]byte, err error) {
	if len(p) == 0 {
		return nil, nil
	}
	in := ser.FromBytes(p)
	if err := ser.Decode(func() {
		posts = make([][]byte, count)
		for i := range posts {
			if in.ReadBool() {
				posts[i] = in.ReadBytes()
			}
		}
		if in.Remaining() != 0 {
			panic(fmt.Sprintf("%d bytes past the parts", in.Remaining()))
		}
	}); err != nil {
		return nil, fmt.Errorf("netcomm: relayed arrival of %d workers: %v", count, err)
	}
	return posts, nil
}

// readLoop demuxes the hub connection: frames are staged into the
// destination endpoint's pending buffers, relayed arrivals advance the
// wire barrier, aborts release everything.
func (c *Client) readLoop() {
	defer c.reading.Done()
	// Reads go through one buffer: a round's small frames and the arrival
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
		case kArrive:
			// a plain arrival is read into v; one with posts into memory
			// of its own, which the posts alias until the crossing after
			// next
			var v [8]byte
			if n < len(v) {
				c.bar.abortLocal(fmt.Errorf("netcomm: relayed arrival with a %d-byte payload", n))
				return
			}
			p := v[:]
			if n > len(v) {
				p = make([]byte, n)
			}
			if _, err := io.ReadFull(br, p); err != nil {
				c.bar.abortLocal(fmt.Errorf("netcomm: truncated arrival: %w", err))
				return
			}
			if err := c.bar.relayed(int(b), int(a), binary.LittleEndian.Uint64(p), p[len(v):]); err != nil {
				c.bar.abortLocal(err)
				return
			}
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
// the hub (see Hub.OnSamples). It writes nothing itself: the batch rides
// whatever this process writes next — a barrier arrival or the result —
// so the feed lags by at most one barrier crossing and costs no write of
// its own. The stream is ordered, so every batch queued before
// SendResult reaches the hub ahead of the result; a batch still queued
// when a failed job unwinds is dropped with the attempt.
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

// Close implements comm.Fabric: it closes the hub connection and
// returns once the read loop has exited.
func (c *Client) Close() error {
	c.cmu.Lock()
	c.closed = true
	c.cmu.Unlock()
	err := c.conn.Close()
	c.reading.Wait()
	return err
}

// clientEndpoint is one hosted worker's handle. Incoming frames are
// double-buffered: the reader goroutine stages into pending, and the
// first In call after a Flush swaps pending into deliver — at that
// point the post-flush crossing is complete, every other process's
// arrival read behind its frames, so the round's frames are complete,
// and no peer can be past its next flush yet.
type clientEndpoint struct {
	c  *Client
	id int

	out   []*ser.Buffer
	batch [][]byte // per-flush scratch: the frames Flush queues on the client
	hdrs  []byte   // backing for the queued frames' headers, one slot per dst

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

// Flush implements comm.Endpoint without touching the socket: every
// non-empty off-worker buffer becomes one frame. A co-hosted
// destination's is staged in-process. A remote one's is queued on the
// client, header and buffer in place, for the process's write at the
// next crossing. The loopback buffer stays local (zero-copy, as in the
// in-process fabric).
func (ep *clientEndpoint) Flush() error {
	c := ep.c
	batch := ep.batch[:0]
	for dst := 0; dst < c.m; dst++ {
		b := ep.out[dst]
		n := b.Len()
		if dst == ep.id || n == 0 {
			continue
		}
		if dst >= c.lo && dst <= c.hi {
			c.eps[dst-c.lo].stage(ep.id, b.Bytes())
			continue
		}
		hdr := ep.hdrs[dst*headerLen:][:headerLen]
		putHeader(hdr, kFrame, uint16(ep.id), uint16(dst), n)
		batch = append(batch, hdr, b.Bytes())
	}
	ep.batch = batch[:0]
	ep.mu.Lock()
	ep.flushSeq++
	ep.mu.Unlock()
	c.wmu.Lock()
	c.frames = append(c.frames, batch...)
	c.wmu.Unlock()
	return nil
}

// In implements comm.Endpoint. The pre-swap frames are complete by
// ordering: each sender's arrival followed them on the same stream.
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

// Release implements comm.Endpoint: it recycles the outgoing buffers —
// the crossing between Flush and Release wrote the queued ones — while
// incoming buffers are recycled by the swap.
func (ep *clientEndpoint) Release() {
	for _, b := range ep.out {
		b.Reset()
	}
}

// wireBarrier is the client half of the distributed barrier, and the
// whole of its decision: local workers fold their arrivals into one
// kArrive message, made by the last of them to arrive (Client.arrive),
// and the crossing is complete once this process's arrival and the ones
// the hub relayed from the others speak for all M workers. No process
// can be more than one crossing ahead of another — finishing a crossing
// takes everyone's arrival at it — so two slots, by crossing parity,
// hold every crossing in progress, and two post tables hold the posts
// of a Gather crossing until every local worker has arrived at the
// next one, done reading them.
type wireBarrier struct {
	c    *Client
	k    int // local party size
	mu   sync.Mutex
	cond *sync.Cond

	gen      uint64      // crossings this process has arrived at
	arrived  int         // local arrivals of the current crossing
	acc      uint64      // local value sum of the current crossing
	released uint64      // crossings complete
	value    uint64      // the reduce value of the last crossing complete
	slots    [2]crossing // crossings released and released+1, by parity
	posts    [2][][]byte // Gather posts by crossing parity, then worker
	seen     []uint64    // per first worker of another process: its arrivals relayed so far

	aborted  bool
	abortErr error
}

// crossing sums the arrivals of one barrier crossing: in records this
// process's and gather its kind, others counts the workers of the other
// processes that arrived and posted those of them whose arrival
// carried posts. It is complete with in set and others at M less the
// local party.
type crossing struct {
	in, gather     bool
	others, posted int
	sum            uint64
}

// Wait implements barrier.Barrier.
func (b *wireBarrier) Wait() bool {
	_, _, ok := b.cross(0, -1, nil)
	return ok
}

// AllReduce implements barrier.Barrier.
func (b *wireBarrier) AllReduce(v uint64) (uint64, bool) {
	sum, _, ok := b.cross(v, -1, nil)
	return sum, ok
}

// Gather implements barrier.Barrier.
func (b *wireBarrier) Gather(id int, post []byte) ([][]byte, bool) {
	_, posts, ok := b.cross(0, id, post)
	return posts, ok
}

// cross is one local worker's arrival: a Gather when id >= 0, with
// post for worker id.
func (b *wireBarrier) cross(v uint64, id int, post []byte) (uint64, [][]byte, bool) {
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		return 0, nil, false
	}
	gen := b.gen
	posts := b.posts[gen&1]
	if id >= 0 {
		posts[id] = post
	}
	b.acc += v
	b.arrived++
	sum, last := b.acc, b.arrived == b.k
	if last {
		b.arrived, b.acc = 0, 0
		b.gen++
		s := &b.slots[gen&1]
		s.in, s.gather = true, id >= 0
		s.sum += sum
		b.settle()
	}
	b.mu.Unlock()
	if last {
		var mine [][]byte
		if id >= 0 {
			mine = posts[b.c.lo : b.c.hi+1]
		}
		if err := b.c.arrive(b.k, sum, mine); err != nil {
			b.abortLocal(fmt.Errorf("netcomm: send arrive: %w", err))
			return 0, nil, false
		}
	}
	b.mu.Lock()
	for b.released <= gen && !b.aborted {
		b.cond.Wait()
	}
	val := b.value
	ok := !b.aborted
	b.mu.Unlock()
	if !ok {
		return 0, nil, false
	}
	return val, posts, true
}

// relayed records another process's arrival, relayed by the hub: count
// workers from first on, with value sum v and the parts that followed
// it. The hub has checked neither the range, the parts nor the
// crossing, so a relay is refused that names this process or a range
// past the job, whose parts are not one per worker, that would overfill
// its crossing, or whose crossing is already complete or not yet
// reached by this process (a peer cannot leave a crossing before this
// process arrives at it); whether it should have carried parts is
// settled when the crossing completes.
func (b *wireBarrier) relayed(first, count int, v uint64, parts []byte) error {
	c := b.c
	if count == 0 || first+count > c.m || first <= c.hi && first+count > c.lo {
		return fmt.Errorf("netcomm: relayed arrival names workers %d-%d", first, first+count-1)
	}
	posts, err := readParts(parts, count)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.seen[first]
	if gen > b.gen || gen < b.released {
		return fmt.Errorf("netcomm: workers %d-%d arrived at crossing %d, this process is between %d and %d", first, first+count-1, gen, b.released, b.gen)
	}
	s := &b.slots[gen&1]
	if s.others+count > c.m-b.k {
		return fmt.Errorf("netcomm: relayed arrival of workers %d-%d puts crossing %d past %d workers", first, first+count-1, gen, c.m)
	}
	b.seen[first]++
	s.others += count
	s.sum += v
	if posts != nil {
		s.posted += count
		copy(b.posts[gen&1][first:], posts)
	}
	b.settle()
	return nil
}

// settle releases the current crossing if it is complete — only it can
// be: this process arrives at the next one after it is released — or
// aborts the barrier if the posts of its arrivals do not fit its kind.
// The caller holds mu.
func (b *wireBarrier) settle() {
	s := &b.slots[b.released&1]
	if !s.in || s.others != b.c.m-b.k {
		return
	}
	want := 0
	if s.gather {
		want = s.others
	}
	if s.posted != want {
		b.abortLocked(fmt.Errorf("netcomm: %d of the %d other workers arrived with posts at crossing %d, want %d", s.posted, s.others, b.released, want))
		return
	}
	b.value = s.sum
	*s = crossing{}
	b.released++
	b.cond.Broadcast()
}

// abortLocal marks the barrier aborted (first reason wins) and wakes
// every waiter.
func (b *wireBarrier) abortLocal(err error) {
	b.mu.Lock()
	b.abortLocked(err)
	b.mu.Unlock()
}

func (b *wireBarrier) abortLocked(err error) {
	if !b.aborted {
		b.aborted = true
		b.abortErr = err
	}
	b.cond.Broadcast()
}

// Abort implements barrier.Barrier: a local worker failed. The hub is
// told (best effort) so it can abort every other process.
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
