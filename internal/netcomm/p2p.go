package netcomm

// The peer-to-peer data plane. The hub stays the control plane (join,
// barrier, abort, results); with DataPlaneP2P the workers additionally
// open a data listener each, the hub broadcasts the directory of listen
// addresses once the full party has joined, and every process pair
// shares one direct connection over which round frames flow
// point-to-point — one network traversal instead of two.
//
// Two things the hub relay gave for free have to be rebuilt here:
//
//   - Delivery ordering. On the star, frames and the barrier release
//     share one stream, so observing the release proved the round's
//     frames were staged. On the mesh the release races the data
//     connections, so every Flush ends with a DONE marker per peer
//     connection and the first In of a round waits until every worker's
//     DONE count has caught up with the local flush count.
//   - Backpressure. The hub absorbed any rate mismatch in its own
//     buffers and the kernel's; the mesh instead runs a credit-based
//     window per connection direction: a receiver starts its senders
//     with WindowBytes of credit, every staged frame replenishes credit
//     back to the sender (batched to a quarter window to keep credit
//     traffic negligible, with any residue returned when a DONE marker
//     shows the sender's round went quiescent — so every round ends
//     with the window fully replenished), and a sender whose credit is
//     exhausted blocks in Flush until credit returns or the job
//     aborts. A frame larger than the window is allowed to overdraw
//     it, but only once the full window is available — so a slow
//     receiver bounds every sender's in-flight bytes at
//     max(WindowBytes, one frame).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ser"
)

// Data-plane selection for Config.DataPlane.
const (
	// DataPlaneHub relays every frame through the coordinator (the
	// default): frames traverse the network twice but need no extra
	// connections.
	DataPlaneHub = "hub"
	// DataPlaneP2P sends frames over a direct worker↔worker mesh with
	// credit-based flow control; only control traffic touches the hub.
	DataPlaneP2P = "p2p"
	// DataPlaneP2PAdaptive is the self-sizing p2p plane: the mesh is
	// dialed lazily (cold pairs ride the hub relay until their volume
	// earns a promotion to a direct connection) and each connection's
	// credit window is tuned per round between Config.WindowMin and
	// Config.WindowMax from observed round volume and sender stalls.
	DataPlaneP2PAdaptive = "p2p-adaptive"
)

// ErrPeerLost marks errors caused by a peer's data connection dying
// while it still owed this worker rounds or credit. It is always
// fallout of the peer process itself dying or unwinding — an event the
// hub detects independently and reports as ErrWorkerLost — so recovery
// classification treats it like abort fallout, not like an error the
// worker would hit again on retry. Test with errors.Is; the peer-lost
// error strings a worker ships in its result blob are rehydrated to
// wrap this sentinel by the coordinator.
var ErrPeerLost = errors.New("netcomm: peer connection lost")

// DefaultWindowBytes is the per-peer-connection receive window granted
// to each sender when Config.WindowBytes is zero. A few MB keeps a
// full-speed sender streaming across a LAN round-trip while bounding
// the memory a straggling receiver can pin per peer.
const DefaultWindowBytes = 4 << 20

// DefaultPromoteBytes is the cumulative relayed volume toward one
// process at which the adaptive plane promotes the pair from the hub
// relay to a direct connection when Config.PromoteBytes is zero. A few
// round trips' worth: one burst should not pay a dial, a steady flow
// should pay it early.
const DefaultPromoteBytes = 256 << 10

// defaultMeshTimeout bounds how long DialConfig waits for the peer
// directory and the full mesh before giving up.
const defaultMeshTimeout = 30 * time.Second

// ValidatePlaneConfig rejects data-plane flag combinations that would
// otherwise surface as a silently defaulted window or a deadlocked
// mesh: an unknown plane name, a non-positive window or bound, or
// inverted bounds. graphd and graphworker both run it at startup so a
// bad flag dies with a clear error in the process that was given it.
func ValidatePlaneConfig(plane string, windowBytes, windowMin, windowMax, promoteBytes int) error {
	switch plane {
	case DataPlaneHub, DataPlaneP2P, DataPlaneP2PAdaptive:
	default:
		return fmt.Errorf("unknown -data-plane %q (want %s, %s or %s)",
			plane, DataPlaneHub, DataPlaneP2P, DataPlaneP2PAdaptive)
	}
	if windowBytes <= 0 {
		return fmt.Errorf("-window-bytes must be positive, got %d", windowBytes)
	}
	if windowMin <= 0 {
		return fmt.Errorf("-window-min must be positive, got %d", windowMin)
	}
	if windowMax <= 0 {
		return fmt.Errorf("-window-max must be positive, got %d", windowMax)
	}
	if windowMin > windowMax {
		return fmt.Errorf("-window-min %d exceeds -window-max %d", windowMin, windowMax)
	}
	if promoteBytes <= 0 {
		return fmt.Errorf("-promote-bytes must be positive, got %d", promoteBytes)
	}
	return nil
}

// maxDirectoryPeers bounds the process count a peer directory may
// declare; a directory claiming more is corrupt.
const maxDirectoryPeers = 1 << 16

// Package-wide data-plane memory gauges, exported to /metrics by
// internal/server. hubBuffered tracks the bytes hubs hold for their
// worker connections: each connection's read and write buffers
// (2 x connBufSize, whatever the plane) plus its pump's payload scratch,
// which grows to the largest frame relayed (control-plane-only jobs
// keep that part near zero); windowOutstanding tracks the bytes p2p
// senders have in flight against receive windows (window occupancy
// summed over peer connections).
var (
	hubBuffered       atomic.Int64
	windowOutstanding atomic.Int64
)

// DataPlaneStats reports the process-wide data-plane memory gauges:
// bytes currently held in hub connection buffers and relay scratch, and
// bytes in flight against p2p receive windows.
func DataPlaneStats() (hubBufferedBytes, windowOutstandingBytes int64) {
	return hubBuffered.Load(), windowOutstanding.Load()
}

// peerInfo is one process's entry in the peer directory: the worker
// range it hosts and the data-plane endpoint it listens on.
type peerInfo struct {
	lo, hi        int
	network, addr string
}

// encodeListen encodes a kListen payload (this process's data-plane
// endpoint).
func encodeListen(network, addr string) []byte {
	b := ser.NewBuffer(64)
	b.WriteString(network)
	b.WriteString(addr)
	return b.Bytes()
}

// decodeListen decodes a kListen payload.
func decodeListen(p []byte) (network, addr string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("netcomm: corrupt listen announcement: %v", r)
		}
	}()
	b := ser.FromBytes(p)
	network = b.ReadString()
	addr = b.ReadString()
	if b.Remaining() != 0 {
		return "", "", fmt.Errorf("netcomm: %d trailing bytes in listen announcement", b.Remaining())
	}
	return network, addr, nil
}

// encodeResize encodes a kResize payload: the window the receiver now
// grants the remote sender.
func encodeResize(window int64) []byte {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], uint64(window))
	return p[:]
}

// decodeResize decodes and validates a kResize payload. The window
// crosses a process boundary and feeds straight into the sender's
// credit arithmetic, so a non-positive or absurd value must come back
// as an error, never be applied.
func decodeResize(p []byte) (int64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("netcomm: bad resize payload length %d", len(p))
	}
	w := int64(binary.LittleEndian.Uint64(p))
	if w <= 0 || w > maxPayload {
		return 0, fmt.Errorf("netcomm: bad resize window %d", w)
	}
	return w, nil
}

// encodePromote encodes a kPromote payload: the requesting process's
// hosted range and the relayed volume that triggered the request (the
// latter is diagnostic only).
func encodePromote(lo, hi int, relayed int64) []byte {
	b := ser.NewBuffer(16)
	b.WriteUvarint(uint64(lo))
	b.WriteUvarint(uint64(hi))
	b.WriteUvarint(uint64(relayed))
	return b.Bytes()
}

// decodePromote decodes a kPromote payload. Only the range identifies
// the requester — and even that is cross-checked against the peer
// directory before any dial — so validation here is shape-level: a
// sane range, a non-negative volume, no trailing bytes, no panic.
func decodePromote(p []byte) (lo, hi int, relayed int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			lo, hi, relayed, err = 0, 0, 0, fmt.Errorf("netcomm: corrupt promotion request: %v", r)
		}
	}()
	b := ser.FromBytes(p)
	lo = int(b.ReadUvarint())
	hi = int(b.ReadUvarint())
	relayed = int64(b.ReadUvarint())
	if lo < 0 || hi < lo || hi >= maxDirectoryPeers || relayed < 0 {
		return 0, 0, 0, fmt.Errorf("netcomm: bad promotion request range %d-%d (%d bytes relayed)", lo, hi, relayed)
	}
	if b.Remaining() != 0 {
		return 0, 0, 0, fmt.Errorf("netcomm: %d trailing bytes in promotion request", b.Remaining())
	}
	return lo, hi, relayed, nil
}

// encodePeerDirectory encodes a kPeers payload: the directory of every
// process's hosted range and data-plane endpoint.
func encodePeerDirectory(peers []peerInfo) []byte {
	b := ser.NewBuffer(64 * len(peers))
	b.WriteUvarint(uint64(len(peers)))
	for _, p := range peers {
		b.WriteUvarint(uint64(p.lo))
		b.WriteUvarint(uint64(p.hi))
		b.WriteString(p.network)
		b.WriteString(p.addr)
	}
	return b.Bytes()
}

// decodePeerDirectory decodes and validates a kPeers payload against
// the job's worker count m: entries must be sorted, non-overlapping,
// and cover 0..m-1 exactly. The payload crosses a process boundary, so
// a corrupt one must come back as an error, never a panic.
func decodePeerDirectory(p []byte, m int) (peers []peerInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			peers, err = nil, fmt.Errorf("netcomm: corrupt peer directory: %v", r)
		}
	}()
	b := ser.FromBytes(p)
	n := b.ReadUvarint()
	if n > maxDirectoryPeers {
		return nil, fmt.Errorf("netcomm: peer directory claims %d processes", n)
	}
	peers = make([]peerInfo, 0, n)
	next := 0
	for i := uint64(0); i < n; i++ {
		e := peerInfo{lo: int(b.ReadUvarint()), hi: int(b.ReadUvarint())}
		e.network = b.ReadString()
		e.addr = b.ReadString()
		if e.lo != next || e.hi < e.lo || e.hi >= m {
			return nil, fmt.Errorf("netcomm: peer directory entry %d..%d out of order for %d workers", e.lo, e.hi, m)
		}
		next = e.hi + 1
		peers = append(peers, e)
	}
	if next != m {
		return nil, fmt.Errorf("netcomm: peer directory covers %d of %d workers", next, m)
	}
	if b.Remaining() != 0 {
		return nil, fmt.Errorf("netcomm: %d trailing bytes in peer directory", b.Remaining())
	}
	return peers, nil
}

// mesh is a client's p2p data plane: the local listener, one peerConn
// per remote process, and the per-worker round-completion counters the
// endpoint swap waits on.
type mesh struct {
	c       *Client
	ln      net.Listener
	sockDir string // temp dir of the unix data socket, "" for tcp
	advNet  string // advertised listener endpoint
	advAddr string
	timeout time.Duration // bounds mesh establishment and each peer dial

	mu      sync.Mutex
	cond    *sync.Cond
	dir     []peerInfo  // peer directory; nil until the hub broadcasts it
	closed  bool        // close() ran; late connections are dropped
	peers   []*peerConn // per worker id; nil for locally hosted ids
	conns   []*peerConn // every established peer connection
	expect  int         // remote processes expected; -1 until the directory arrives
	doneSeq []uint64    // per src worker id: rounds fully staged locally

	// Adaptive (lazy) mesh state, nil/empty on the static plane. routes
	// holds one entry per remote process in directory order; routeIdx
	// maps a worker id to its process's routes index (-1 for locally
	// hosted ids). latch[local worker][route] pins the route a worker's
	// frames took this round (latchRelay/latchDirect) so its DONE marker
	// follows the same streams even if the pair is promoted mid-round;
	// finishRound consumes and clears it. Each latch row is only ever
	// touched by its own worker's Flush goroutine, but rows live under
	// m.mu because deliver reads the peers table in the same breath.
	routes   []*meshRoute
	routeIdx []int
	latch    [][]int8
}

// Latch states for mesh.latch.
const (
	latchNone   = int8(0)
	latchRelay  = int8(1)
	latchDirect = int8(2)
)

// meshRoute is the adaptive mesh's view of one remote process: whether
// a direct connection exists yet, whether a promotion has been
// attempted, and how much traffic the pair has pushed through the hub
// relay while cold. All fields are guarded by mesh.mu.
type meshRoute struct {
	p           peerInfo
	direct      bool // a direct connection is installed in mesh.peers
	dialing     bool // a promotion dial was attempted (never retried)
	promoteSent bool // kPromote asked the lower-range side to dial us
	relayBytes  int64
	relayFrames int64
}

// newMesh opens the data-plane listener. For tcp the listener binds the
// host the hub connection goes out on (so the advertised address is
// reachable wherever the hub is); for unix it binds a socket in a fresh
// temp dir.
func newMesh(c *Client, network string, timeout time.Duration) (*mesh, error) {
	m := &mesh{c: c, expect: -1, timeout: timeout}
	m.cond = sync.NewCond(&m.mu)
	m.peers = make([]*peerConn, c.m)
	m.doneSeq = make([]uint64, c.m)
	switch network {
	case "unix":
		dir, err := os.MkdirTemp("", "netcomm-p2p-")
		if err != nil {
			return nil, fmt.Errorf("netcomm: data socket dir: %w", err)
		}
		ln, err := net.Listen("unix", filepath.Join(dir, "data.sock"))
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("netcomm: data listener: %w", err)
		}
		m.ln, m.sockDir = ln, dir
	default:
		host, _, err := net.SplitHostPort(c.conn.LocalAddr().String())
		if err != nil {
			host = "127.0.0.1"
		}
		ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
		if err != nil {
			return nil, fmt.Errorf("netcomm: data listener: %w", err)
		}
		m.ln = ln
	}
	m.advNet = m.ln.Addr().Network()
	m.advAddr = m.ln.Addr().String()
	go m.acceptLoop()
	return m, nil
}

// acceptLoop vets and registers inbound peer connections (dialed by
// processes with a lower worker range; see connect for the dialing
// rule).
func (m *mesh) acceptLoop() {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			kind, a, b, n, err := readHeader(conn)
			if err != nil || kind != kHello || n != 0 {
				conn.Close()
				return
			}
			m.registerInbound(conn, int(a), int(b))
		}()
	}
}

// registerInbound vets an inbound data connection before installing
// it. The kHello range is self-declared, so nothing about the
// connection is trusted yet: registration waits for the hub's peer
// directory (any legitimate dialer holds it too — the hub broadcasts
// it to the whole party at once), the announced range must match a
// directory entry exactly, and the dialing rule must hold (only
// processes with a lower range start dial us). A connection that fails
// vetting — stray, stale, or a duplicate racing the real peer — is
// closed and ignored rather than failing the job: the legitimate peer
// can still register, and await() times out if the mesh never
// completes.
func (m *mesh) registerInbound(conn net.Conn, lo, hi int) {
	m.mu.Lock()
	for m.dir == nil && !m.closed {
		m.cond.Wait()
	}
	dir, closed := m.dir, m.closed
	m.mu.Unlock()
	valid := false
	for _, p := range dir {
		if p.lo == lo && p.hi == hi {
			valid = true
			break
		}
	}
	if closed || !valid || lo >= m.c.lo {
		conn.Close()
		return
	}
	m.register(conn, lo, hi, true)
}

// connect processes the peer directory. On the static plane this
// process dials every peer with a higher range start (the peer with
// the lower start accepts), so each process pair ends up with exactly
// one shared connection. On the adaptive plane nothing is dialed:
// routes start on the hub relay and await() is satisfied by the
// directory alone — connections appear later, per pair, when relayed
// volume earns a promotion.
func (m *mesh) connect(dir []peerInfo) {
	c := m.c
	m.mu.Lock()
	m.dir = dir
	if c.adaptive {
		m.routeIdx = make([]int, c.m)
		for i := range m.routeIdx {
			m.routeIdx[i] = -1
		}
		for _, p := range dir {
			if p.lo == c.lo {
				continue
			}
			ri := len(m.routes)
			m.routes = append(m.routes, &meshRoute{p: p})
			for w := p.lo; w <= p.hi; w++ {
				m.routeIdx[w] = ri
			}
		}
		m.latch = make([][]int8, c.hi-c.lo+1)
		for i := range m.latch {
			m.latch[i] = make([]int8, len(m.routes))
		}
		m.expect = 0
		m.cond.Broadcast()
		m.mu.Unlock()
		return
	}
	remote := 0
	for _, p := range dir {
		if p.lo != c.lo {
			remote++
		}
	}
	m.expect = remote
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, p := range dir {
		if p.lo <= c.lo {
			continue
		}
		go m.dialPeer(p, true)
	}
}

// dialPeer establishes the direct connection to one higher-range peer
// (this side is the dialer by the lower-dials rule). must selects the
// failure policy: a mesh-establishment dial failure fails the client —
// the static mesh cannot exist without it — while a promotion dial
// failure only leaves the pair on the hub relay it was already using.
func (m *mesh) dialPeer(p peerInfo, must bool) {
	c := m.c
	// The dial carries its own deadline: the OS connect timeout to a
	// black-holed address can run minutes past the mesh timeout, and
	// await() giving up must not leave a dial goroutine hanging
	// indefinitely behind it.
	d := net.Dialer{Timeout: m.timeout}
	conn, err := d.Dial(p.network, p.addr)
	if err != nil {
		if must {
			c.fail(fmt.Errorf("netcomm: dial peer %d-%d at %s: %w", p.lo, p.hi, p.addr, err))
		}
		return
	}
	if err := writeMsg(conn, kHello, uint16(c.lo), uint16(c.hi), nil); err != nil {
		conn.Close()
		if must {
			c.fail(fmt.Errorf("netcomm: peer hello %d-%d: %w", p.lo, p.hi, err))
		}
		return
	}
	m.register(conn, p.lo, p.hi, false)
}

// promoteRequested handles a relayed kPromote: a peer with a higher
// range start wants a direct connection and the dialing rule puts the
// dial on this side. The requester's range is only trusted once it
// matches the hub-vetted directory; the dial goes to the directory's
// address for that range, never to anything frame-supplied.
func (m *mesh) promoteRequested(lo, hi int) {
	m.mu.Lock()
	var p peerInfo
	found := false
	for _, e := range m.dir {
		if e.lo == lo && e.hi == hi {
			p, found = e, true
			break
		}
	}
	if !found || m.closed || lo <= m.c.lo {
		m.mu.Unlock()
		return
	}
	ri := m.routeIdx[lo]
	rt := m.routes[ri]
	if rt.direct || rt.dialing {
		m.mu.Unlock()
		return
	}
	rt.dialing = true
	m.mu.Unlock()
	go m.dialPeer(p, false)
}

// register installs one established peer connection and starts its
// read loop. Both callers have validated lo..hi against the decoded
// peer directory. An already-closed mesh drops the connection either
// way — a late arrival must not spin a read loop against torn-down
// state. An occupied slot means a duplicate: on the outbound path (we
// dialed, once per directory entry) that is a protocol bug and fails
// the client; on the inbound path it is a stray or stale dialer racing
// the real peer, and only the connection is dropped.
func (m *mesh) register(conn net.Conn, lo, hi int, inbound bool) {
	c := m.c
	pc := &peerConn{conn: conn, lo: lo, hi: hi,
		window: c.window, avail: c.window,
		recvWindow: c.window, windowPeak: c.window}
	pc.cond = sync.NewCond(&pc.mu)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return
	}
	for w := lo; w <= hi; w++ {
		if m.peers[w] != nil {
			m.mu.Unlock()
			conn.Close()
			if !inbound {
				c.fail(fmt.Errorf("netcomm: duplicate peer connection for workers %d-%d", lo, hi))
			}
			return
		}
	}
	for w := lo; w <= hi; w++ {
		m.peers[w] = pc
	}
	m.conns = append(m.conns, pc)
	if c.adaptive {
		// The pair is promoted: delivers from the next round (or the
		// next unlatched worker of this round) take the direct path.
		rt := m.routes[m.routeIdx[lo]]
		rt.direct = true
		rt.dialing = true
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	go m.readPeer(pc)
}

// await blocks until the mesh is established or the job aborts or the
// mesh timeout passes. Static plane: directory received and every
// remote process connected. Adaptive plane: the directory alone — the
// hub relay is a valid route to every peer from the first round, and
// connections accrue later via promotion (an early inbound promotion
// racing this wait must not count against a connection total).
func (m *mesh) await() error {
	timeout := m.timeout
	deadline := time.Now().Add(timeout)
	stop := time.AfterFunc(timeout, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.expect >= 0 && (m.c.adaptive || len(m.conns) == m.expect) {
			return nil
		}
		if m.c.bar.Aborted() {
			return fmt.Errorf("netcomm: job aborted while establishing mesh: %w", m.c.Err())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("netcomm: p2p mesh not established within %v (%d of %d peers)",
				timeout, len(m.conns), m.expect)
		}
		m.cond.Wait()
	}
}

// readPeer demuxes one peer connection: DATA frames are staged into the
// destination endpoint's pending buffers (granting credit back as they
// land), DONE markers advance the per-worker round counters, CREDIT
// grants top up this side's send window.
//
// A connection-level failure (EOF, reset, truncation) does NOT abort
// the client: a peer that finished the job tears its process down while
// slower peers are still completing, and that EOF is benign — every
// frame and DONE marker it owed arrived before the orderly close.
// Worker death is the control plane's call (the hub aborts the job when
// a process drops before reporting); here the loss only poisons this
// connection, so anything still needing it — a credit-blocked sender, a
// Flush, a delivery wait — fails promptly while a client that is done
// with it sails on to its result.
func (m *mesh) readPeer(pc *peerConn) {
	c := m.c
	creditBatch := c.window / 4
	if creditBatch < 1 {
		creditBatch = 1
	}
	var granted int64 // credit staged but not yet sent back
	// Adaptive plane: this side owns the window it grants, so this loop
	// also runs the controller. A sender round on this connection is
	// one DONE per remote-hosted worker; the controller observes the
	// bytes that accumulated across the round and whether any marker
	// carried the sender's stall hint. (After a mid-round promotion a
	// round's markers can split between relay and mesh, skewing one
	// observation's byte attribution; the controller only feeds on
	// ratios, and the split heals as soon as every worker latches
	// direct.)
	var ctl *windowController
	if c.adaptive {
		ctl = newWindowController(c.window, c.winMin, c.winMax)
	}
	senderWorkers := pc.hi - pc.lo + 1
	var roundBytes int64
	var roundDones int
	var roundStalled bool
	for {
		kind, a, b, n, err := readHeader(pc.conn)
		if err != nil {
			m.connLost(pc, fmt.Errorf("netcomm: peer connection to workers %d-%d lost: %w", pc.lo, pc.hi, err))
			return
		}
		switch kind {
		case kData:
			src, dst := int(a), int(b)
			if dst < c.lo || dst > c.hi || src < pc.lo || src > pc.hi {
				c.fail(fmt.Errorf("netcomm: misrouted data frame %d->%d", src, dst))
				return
			}
			ep := c.eps[dst-c.lo]
			ep.mu.Lock()
			_, err = io.ReadFull(pc.conn, ep.pending[src].Extend(n))
			ep.mu.Unlock()
			if err != nil {
				m.connLost(pc, fmt.Errorf("netcomm: data frame from workers %d-%d truncated: %w", pc.lo, pc.hi, err))
				return
			}
			granted += int64(n)
			roundBytes += int64(n)
			if granted >= creditBatch {
				if err := pc.sendCredit(granted); err != nil {
					m.connLost(pc, fmt.Errorf("netcomm: send credit to workers %d-%d: %w", pc.lo, pc.hi, err))
					return
				}
				granted = 0
			}
		case kDone:
			src := int(a)
			if src < pc.lo || src > pc.hi {
				c.fail(fmt.Errorf("netcomm: done marker for foreign worker %d", src))
				return
			}
			m.bumpDone(src)
			// The marker ends a sender round on this connection, so
			// nothing is guaranteed to arrive and push the batched
			// credit over its threshold: return the residue now.
			// Stranding it would shrink the sender's effective window
			// across the quiescent gap — a following frame needing the
			// full window would deadlock, since the sender blocks
			// without sending the data whose staging is the only other
			// credit source.
			if granted > 0 {
				if err := pc.sendCredit(granted); err != nil {
					m.connLost(pc, fmt.Errorf("netcomm: send credit to workers %d-%d: %w", pc.lo, pc.hi, err))
					return
				}
				granted = 0
			}
			if ctl != nil {
				roundStalled = roundStalled || b == 1
				if roundDones++; roundDones >= senderWorkers {
					next := ctl.Observe(roundBytes, roundStalled)
					roundBytes, roundDones, roundStalled = 0, 0, false
					pc.mu.Lock()
					cur := pc.recvWindow
					if next != cur && !pc.closed {
						pc.recvWindow = next
						pc.resizes++
					}
					pc.mu.Unlock()
					if next != cur {
						// Tell the sender before recomputing the grant
						// batch: the resize travels the same stream as
						// the credits, so the sender sees a consistent
						// (window, credit) sequence.
						if err := pc.sendResize(next); err != nil {
							m.connLost(pc, fmt.Errorf("netcomm: send window resize to workers %d-%d: %w", pc.lo, pc.hi, err))
							return
						}
						if creditBatch = next / 4; creditBatch < 1 {
							creditBatch = 1
						}
					}
				}
			}
		case kResize:
			p := make([]byte, n)
			if _, err := io.ReadFull(pc.conn, p); err != nil {
				m.connLost(pc, fmt.Errorf("netcomm: resize from workers %d-%d truncated: %w", pc.lo, pc.hi, err))
				return
			}
			next, err := decodeResize(p)
			if err != nil {
				c.fail(err)
				return
			}
			// The remote receiver retargeted our send window. Preserve
			// the bytes currently in flight: avail moves by the same
			// delta as the window, so (window - avail) — what the
			// windowOutstanding gauge and die()'s reconciliation track —
			// is untouched. A shrink below the outstanding volume just
			// leaves avail negative until credits catch up, the same
			// arithmetic the oversized-frame borrow already exercises.
			pc.mu.Lock()
			if !pc.closed {
				pc.avail += next - pc.window
				pc.window = next
				if next > pc.windowPeak {
					pc.windowPeak = next
				}
				pc.resizes++
				pc.cond.Broadcast()
			}
			pc.mu.Unlock()
		case kCredit:
			if n != 8 {
				c.fail(fmt.Errorf("netcomm: bad credit payload length %d", n))
				return
			}
			var v [8]byte
			if _, err := io.ReadFull(pc.conn, v[:]); err != nil {
				m.connLost(pc, fmt.Errorf("netcomm: credit from workers %d-%d truncated: %w", pc.lo, pc.hi, err))
				return
			}
			g := int64(binary.LittleEndian.Uint64(v[:]))
			if g < 0 || g > maxPayload {
				c.fail(fmt.Errorf("netcomm: bad credit grant %d", g))
				return
			}
			pc.mu.Lock()
			if !pc.closed {
				windowOutstanding.Add(-g)
				pc.avail += g
				pc.grants++
				if pc.waitStart != 0 {
					// A sender is credit-starved: this grant's arrival
					// latency is the window-tuning signal (ROADMAP's
					// adaptive-window item wants observed grant latency
					// next to stall time).
					now := time.Now().UnixNano()
					pc.grantWaitNS += now - pc.waitStart
					pc.waitStart = now
				}
				pc.cond.Broadcast()
			}
			pc.mu.Unlock()
		default:
			c.fail(fmt.Errorf("netcomm: unexpected message kind %d on peer connection", kind))
			return
		}
	}
}

// connLost marks one peer connection dead and wakes the mesh: blocked
// senders fail out of their credit wait with the cause, and delivery
// waits re-check whether the lost connection still owed them rounds.
func (m *mesh) connLost(pc *peerConn, err error) {
	pc.die(err)
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// deliver routes one round frame from a local src worker to a dst in
// another process (Flush stages co-hosted ones itself): over the peer
// connection under its credit window — or, on the adaptive plane,
// through the hub relay while the pair is still cold. The returned
// stall is the time spent blocked on exhausted credit.
func (m *mesh) deliver(src, dst int, payload []byte) (time.Duration, error) {
	c := m.c
	if c.adaptive {
		return m.deliverLazy(src, dst, payload)
	}
	m.mu.Lock()
	pc := m.peers[dst]
	m.mu.Unlock()
	if pc == nil {
		return 0, fmt.Errorf("netcomm: no mesh route to worker %d", dst)
	}
	return pc.sendData(m, src, dst, payload)
}

// deliverLazy routes one frame on the adaptive plane. The first frame
// a worker sends toward a process this round latches the route —
// direct if a connection exists at that instant, hub relay otherwise —
// so the worker's whole round, DONE marker included, travels one set
// of streams even if the pair is promoted underneath it. Relay volume
// is what earns the promotion: once a pair's cumulative relayed bytes
// cross the threshold, the lower-range side dials (directly, or after
// a kPromote relayed from the higher side) exactly once.
func (m *mesh) deliverLazy(src, dst int, payload []byte) (time.Duration, error) {
	c := m.c
	m.mu.Lock()
	ri := m.routeIdx[dst]
	if ri < 0 {
		m.mu.Unlock()
		return 0, fmt.Errorf("netcomm: no mesh route to worker %d", dst)
	}
	rt := m.routes[ri]
	li := src - c.lo
	lt := m.latch[li][ri]
	if lt == latchNone {
		lt = latchRelay
		if m.peers[dst] != nil {
			lt = latchDirect
		}
		m.latch[li][ri] = lt
	}
	if lt == latchDirect {
		pc := m.peers[dst]
		m.mu.Unlock()
		return pc.sendData(m, src, dst, payload)
	}
	m.mu.Unlock()
	// Relay through the hub: the same kFrame the hub plane uses, staged
	// by the destination's hub read loop. No credit window applies —
	// the hub absorbs the rate mismatch exactly as it does for every
	// hub-plane job — so a cold pair costs no standing receive memory.
	if err := c.send(kFrame, uint16(src), uint16(dst), payload); err != nil {
		return 0, fmt.Errorf("netcomm: relay data frame %d->%d: %w", src, dst, err)
	}
	m.mu.Lock()
	rt.relayBytes += int64(len(payload))
	rt.relayFrames++
	promote := !rt.direct && !rt.dialing && !rt.promoteSent && rt.relayBytes >= c.promoteBytes
	var p peerInfo
	if promote {
		p = rt.p
		if c.lo < rt.p.lo {
			rt.dialing = true
		} else {
			rt.promoteSent = true
		}
		relayed := rt.relayBytes
		m.mu.Unlock()
		if c.lo < p.lo {
			go m.dialPeer(p, false)
		} else if err := c.send(kPromote, uint16(c.lo), uint16(p.lo), encodePromote(c.lo, c.hi, relayed)); err != nil {
			return 0, fmt.Errorf("netcomm: send promotion request to workers %d-%d: %w", p.lo, p.hi, err)
		}
		return 0, nil
	}
	m.mu.Unlock()
	return 0, nil
}

// finishRound marks one local worker's round complete. Static plane: a
// DONE marker on every peer connection (after that worker's frames,
// same streams) plus the local counter for co-hosted readers. Adaptive
// plane: one DONE per remote process, each following the route the
// worker's frames latched this round — direct markers ride the peer
// connection, relay markers ride the hub (which forwards them to the
// target after the frames it relayed, preserving order on both hops).
// Direct markers carry the stall hint the receiver's window controller
// feeds on: whether any sender blocked on this connection's credit
// since its last marker.
func (m *mesh) finishRound(src int) error {
	c := m.c
	if !c.adaptive {
		m.mu.Lock()
		conns := append([]*peerConn(nil), m.conns...)
		m.mu.Unlock()
		for _, pc := range conns {
			if err := pc.sendDone(src); err != nil {
				err = fmt.Errorf("netcomm: peer connection to workers %d-%d lost: %w", pc.lo, pc.hi, err)
				m.connLost(pc, err)
				return fmt.Errorf("netcomm: send done to workers %d-%d: %w", pc.lo, pc.hi, err)
			}
		}
		m.bumpDone(src)
		return nil
	}
	li := src - c.lo
	type doneRoute struct {
		pc    *peerConn // direct route; nil = relay via hub
		hubLo int       // relay target process range start
	}
	m.mu.Lock()
	targets := make([]doneRoute, 0, len(m.routes))
	for ri, rt := range m.routes {
		lt := m.latch[li][ri]
		m.latch[li][ri] = latchNone
		pc := m.peers[rt.p.lo]
		if lt == latchRelay || (lt == latchNone && pc == nil) {
			targets = append(targets, doneRoute{hubLo: rt.p.lo})
		} else {
			targets = append(targets, doneRoute{pc: pc})
		}
	}
	m.mu.Unlock()
	for _, t := range targets {
		if t.pc != nil {
			if err := t.pc.sendDone(src); err != nil {
				err = fmt.Errorf("netcomm: peer connection to workers %d-%d lost: %w", t.pc.lo, t.pc.hi, err)
				m.connLost(t.pc, err)
				return fmt.Errorf("netcomm: send done to workers %d-%d: %w", t.pc.lo, t.pc.hi, err)
			}
		} else if err := c.send(kDone, uint16(src), uint16(t.hubLo), nil); err != nil {
			return fmt.Errorf("netcomm: relay done to workers at %d: %w", t.hubLo, err)
		}
	}
	m.bumpDone(src)
	return nil
}

// bumpDone advances one worker's completed-round counter and wakes
// endpoint swaps waiting on it.
func (m *mesh) bumpDone(src int) {
	m.mu.Lock()
	m.doneSeq[src]++
	m.cond.Broadcast()
	m.mu.Unlock()
}

// waitDelivered blocks until every worker's completed-round counter has
// reached target (every round-target frame is staged locally) or the
// job aborts — the caller's engine observes the abort at its next
// barrier crossing, so an early return on abort is safe. A dead peer
// connection that still owes rounds can never deliver them, so the wait
// fails the client instead of parking until the control plane notices.
func (m *mesh) waitDelivered(target uint64) {
	m.mu.Lock()
	for {
		done := true
		var lost error
		for w, s := range m.doneSeq {
			if s >= target {
				continue
			}
			done = false
			pc := m.peers[w]
			if pc == nil {
				continue // co-hosted: its own Flush will bump the counter
			}
			pc.mu.Lock()
			if pc.closed {
				lost = pc.err
				if lost == nil {
					lost = fmt.Errorf("netcomm: peer connection to workers %d-%d closed", pc.lo, pc.hi)
				}
			}
			pc.mu.Unlock()
			if lost != nil {
				break
			}
		}
		if done || m.c.stopping() {
			m.mu.Unlock()
			return
		}
		if lost != nil {
			m.mu.Unlock()
			m.c.fail(fmt.Errorf("netcomm: round %d undeliverable: %w", target, lost))
			return
		}
		m.cond.Wait()
	}
}

// wake unblocks every mesh waiter (credit-starved senders, delivery
// waits, the dial-time await) so they can observe an abort or close.
func (m *mesh) wake() {
	m.mu.Lock()
	conns := append([]*peerConn(nil), m.conns...)
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, pc := range conns {
		pc.mu.Lock()
		pc.cond.Broadcast()
		pc.mu.Unlock()
	}
}

// close tears the data plane down: listener, every peer connection, the
// unix socket dir, and the in-flight window gauge contribution.
func (m *mesh) close() {
	m.ln.Close()
	m.mu.Lock()
	m.closed = true
	conns := append([]*peerConn(nil), m.conns...)
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, pc := range conns {
		pc.close()
	}
	if m.sockDir != "" {
		os.RemoveAll(m.sockDir)
	}
}

// peerConn is one direct connection to a remote process, shared by all
// co-hosted workers on both sides. Each direction has an independent
// credit window: avail is what the remote receiver still lets us send;
// the grants we owe the remote sender are batched in readPeer.
type peerConn struct {
	conn   net.Conn
	wmu    sync.Mutex // serializes frame/done/credit writes
	lo, hi int        // remote hosted worker range

	mu      sync.Mutex
	cond    *sync.Cond
	window  int64
	avail   int64 // remaining send credit; may go negative for an oversized frame
	stallNS int64
	closed  bool
	err     error // why the connection died; nil for a clean local close

	// Adaptive-window state. stalledRound records that a sender blocked
	// on this window since the last DONE marker; the next marker carries
	// it to the receiver's controller as the grow signal. recvWindow is
	// the window this side currently grants the remote sender (the
	// connection's standing receive memory); windowPeak and resizes
	// track the send window's trajectory for /flows.
	stalledRound bool
	recvWindow   int64
	windowPeak   int64
	resizes      int64

	// Flow telemetry (see Client.ConnStats): outbound volume, credit
	// grants observed, and — while a sender sits blocked on the window —
	// how long the grants that could unblock it took to arrive.
	// waitStart is the UnixNano instant the oldest still-blocked wait
	// has been credit-starved since (0 = no sender blocked).
	sentBytes   int64
	sentFrames  int64
	grants      int64
	grantWaitNS int64
	waitStart   int64
}

// sendData writes one data frame under the credit window, blocking
// while the window is exhausted. A frame larger than the whole window
// waits for the window to be fully replenished, then overdraws it. A
// failed write means the connection is dead (the remote process died or
// tore down): the connection is poisoned through the mesh so every
// other user of it fails with the same peer-lost cause.
func (pc *peerConn) sendData(m *mesh, src, dst int, payload []byte) (time.Duration, error) {
	c := m.c
	n := int64(len(payload))
	var stall time.Duration
	pc.mu.Lock()
	if pc.avail < n && pc.avail < pc.window {
		pc.stalledRound = true
		t0 := time.Now()
		if pc.waitStart == 0 {
			pc.waitStart = t0.UnixNano()
		}
		for pc.avail < n && pc.avail < pc.window && !c.stopping() && !pc.closed {
			pc.cond.Wait()
		}
		stall = time.Since(t0)
		pc.stallNS += int64(stall)
		pc.waitStart = 0
	}
	if c.stopping() || pc.closed {
		cause := pc.err
		pc.mu.Unlock()
		if cause != nil {
			return stall, fmt.Errorf("netcomm: send to workers %d-%d: %w", pc.lo, pc.hi, cause)
		}
		return stall, fmt.Errorf("netcomm: aborted while awaiting window credit for workers %d-%d", pc.lo, pc.hi)
	}
	pc.avail -= n
	pc.sentBytes += n
	pc.sentFrames++
	windowOutstanding.Add(n)
	pc.mu.Unlock()
	pc.wmu.Lock()
	err := writeMsg(pc.conn, kData, uint16(src), uint16(dst), payload)
	pc.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("netcomm: peer connection to workers %d-%d lost: %w", pc.lo, pc.hi, err)
		m.connLost(pc, err)
		return stall, fmt.Errorf("netcomm: send data frame %d->%d: %w", src, dst, err)
	}
	return stall, nil
}

// sendCredit returns staged credit to the remote sender.
func (pc *peerConn) sendCredit(grant int64) error {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], uint64(grant))
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	return writeMsg(pc.conn, kCredit, 0, 0, p[:])
}

// sendResize retargets the remote sender's window (receiver-initiated;
// the sender preserves its in-flight volume across the change).
func (pc *peerConn) sendResize(window int64) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	return writeMsg(pc.conn, kResize, 0, 0, encodeResize(window))
}

// sendDone writes one worker's round-completion marker, carrying the
// stall hint (b=1: a sender blocked on this window since the previous
// marker) the adaptive receiver's controller grows the window from.
func (pc *peerConn) sendDone(src int) error {
	var hint uint16
	pc.mu.Lock()
	if pc.stalledRound {
		hint = 1
		pc.stalledRound = false
	}
	pc.mu.Unlock()
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	return writeMsg(pc.conn, kDone, uint16(src), hint, nil)
}

// stallTime reports the cumulative time senders spent blocked on this
// connection's window.
func (pc *peerConn) stallTime() time.Duration {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return time.Duration(pc.stallNS)
}

// close shuts the connection down cleanly (local teardown): blocked
// senders wake and the connection's in-flight bytes return to the
// window gauge.
func (pc *peerConn) close() { pc.die(nil) }

// die marks the connection dead with the given cause (nil for a clean
// close), wakes blocked senders, and reconciles the window gauge. The
// first call wins; later calls only re-close the socket.
func (pc *peerConn) die(err error) {
	pc.mu.Lock()
	if !pc.closed {
		pc.closed = true
		pc.err = err
		windowOutstanding.Add(pc.avail - pc.window)
		pc.cond.Broadcast()
	}
	pc.mu.Unlock()
	pc.conn.Close()
}
