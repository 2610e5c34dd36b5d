package netcomm

// White-box tests of the hub plane's wire economy — how many writes a
// round costs, what stays in-process, how much a receiver holds — and
// of the buffered readers on both ends, driven by scripted raw peers
// that chop legal streams at arbitrary byte boundaries and hide hostile
// headers inside batches.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/seq"
)

// countingListener counts the conn-level reads (that returned data) and
// writes of every connection it accepts. The hub writes each flush of a
// buffered writer as one Write, so the count is exact on that side.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.l.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// framePattern fills the deterministic payload of (round, src, dst).
func framePattern(p []byte, round, src, dst int) {
	for i := range p {
		p[i] = byte(round*31 + src*7 + dst*3 + i)
	}
}

// The hub plane's write budget, counted in the kernel: the fabric runs
// over SOCK_SEQPACKET Unix sockets, where every write or writev a
// client makes arrives at the hub as exactly one record and one read.
// (A counting wrapper around the client's conn could not see this: a
// net.Buffers write only gathers on package net's own socket types and
// degrades to one Write per buffer on anything else.) 2 processes x 2
// workers, 20 rounds of the engines' round protocol: a process writes
// once per Flush and once per barrier crossing, never for a sample, and
// co-hosted frames never reach the hub yet arrive byte-exact.
func TestHubPlaneOneWritePerFlush(t *testing.T) {
	const m, procs, rounds = 4, 2, 20
	inner, err := net.Listen("unixpacket", filepath.Join(t.TempDir(), "hub.sock"))
	if err != nil {
		t.Skipf("no SOCK_SEQPACKET Unix sockets here: %v", err)
	}
	ln := &countingListener{Listener: inner}
	hub := NewHub(m, comm.CostModel{}, ln)
	t.Cleanup(hub.Close)
	var samplesSeen atomic.Int64
	hub.OnSamples(func(p []byte) {
		if len(p) == 3 && p[0] == 's' {
			samplesSeen.Add(1)
		}
	})
	clients := make([]*Client, procs)
	for i := range clients {
		c, err := Dial("unixpacket", inner.Addr().String(), 2*i, 2*i+1, m)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	if err := hub.WaitJoined(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Small frames: a SEQPACKET read drops what of a record does not fit
	// the reader's buffer, so every write must stay under the smaller
	// one's 16 KiB.
	size := func(round, src, dst int) int { return 200 + 37*src + 11*dst + round }
	var coHosted int64
	var wg sync.WaitGroup
	for w := 0; w < m; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w/2]
			ep, bar := c.Endpoint(w), c.Barrier()
			for r := 0; r < rounds; r++ {
				for dst := 0; dst < m; dst++ {
					if dst != w {
						framePattern(ep.Out(dst).Extend(size(r, w, dst)), r, w, dst)
					}
				}
				if err := ep.Flush(); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				c.SendSamples([]byte{'s', byte(w), byte(r)}) // mid-round: rides the arrival below
				if !bar.Wait() {
					t.Errorf("worker %d round %d: barrier aborted", w, r)
					return
				}
				for src := 0; src < m; src++ {
					if src == w {
						continue
					}
					want := make([]byte, size(r, src, w))
					framePattern(want, r, src, w)
					if got := ep.In(src).Unread(); !bytes.Equal(got, want) {
						t.Errorf("worker %d round %d: frame from %d is %d bytes, want %d, or differs", w, r, src, len(got), len(want))
						return
					}
				}
				c.SendSamples([]byte{'s', byte(w), byte(r)}) // end of round: rides the reduce or, at last, the result
				if _, ok := bar.AllReduce(0); !ok {
					t.Errorf("worker %d round %d: reduce aborted", w, r)
					return
				}
				ep.Release()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, c := range clients {
		c.SendSamples([]byte{'s', 0xff, 0xff}) // queued behind the last crossing: only the result can carry it
		if err := c.SendResult([]byte("done")); err != nil {
			t.Fatal(err)
		}
	}
	if _, errs, err := hub.WaitResults(5 * time.Second); err != nil || len(errs) != 0 {
		t.Fatalf("results: %v %v", err, errs)
	}

	// hello + per round (one Flush per hosted worker + one arrival per
	// crossing) + result, per process
	wantWrites := int64(procs * (1 + rounds*(2+2) + 1))
	if got := ln.reads.Load(); got != wantWrites {
		t.Errorf("the clients made %d writes, want %d: one per Flush and per crossing, none per sample", got, wantWrites)
	}
	if got, want := samplesSeen.Load(), int64(m*rounds*2+procs); got != want {
		t.Errorf("%d of %d samples reached OnSamples by the time the results were in", got, want)
	}
	// A pump relays what one client write carried with at most one write
	// per destination process (here: one), and each crossing's release is
	// one write per process.
	if got, max := ln.writes.Load(), int64(procs*rounds*2+procs*rounds*2); got > max {
		t.Errorf("the hub made %d writes, want at most %d: one per relayed flush, one per release", got, max)
	}
	for r := 0; r < rounds; r++ {
		for src := 0; src < m; src++ {
			for dst := 0; dst < m; dst++ {
				if src != dst && src/2 == dst/2 {
					coHosted += int64(size(r, src, dst))
				}
			}
		}
	}
	st := hub.Stats()
	if st.Rounds != rounds {
		t.Errorf("hub counted %d rounds, want %d", st.Rounds, rounds)
	}
	if got, want := hub.DataBytes(), st.NetworkBytes-coHosted; got != want || coHosted == 0 {
		t.Errorf("hub relayed %d bytes, want the %d accounted less the %d co-hosted = %d", got, st.NetworkBytes, coHosted, want)
	}
	var relayed int64
	for _, rs := range hub.RelayStats() {
		relayed += rs.Bytes
	}
	if relayed != hub.DataBytes() {
		t.Errorf("relay stats sum to %d bytes, hub relayed %d", relayed, hub.DataBytes())
	}
}

// msg encodes one wire message.
func msg(kind uint8, a, b uint16, payload []byte) []byte {
	return append(appendHeader(nil, kind, a, b, len(payload)), payload...)
}

// writeChunked writes p in chunk-byte pieces, each its own Write.
func writeChunked(w io.Writer, p []byte, chunk int) error {
	for len(p) > 0 {
		n := min(chunk, len(p))
		if _, err := w.Write(p[:n]); err != nil {
			return fmt.Errorf("scripted peer write: %w", err)
		}
		p = p[n:]
	}
	return nil
}

// awaitKind reads and drops messages from r up to and including the
// first of the given kind — how a scripted peer paces itself on the
// real side's arrivals or releases.
func awaitKind(r *bufio.Reader, kind uint8) error {
	for {
		k, _, _, n, err := readHeader(r)
		if err != nil {
			return fmt.Errorf("scripted peer waiting for kind %d: %w", kind, err)
		}
		if _, err := r.Discard(n); err != nil {
			return err
		}
		if k == kind {
			return nil
		}
	}
}

// A worker whose writes reach the hub chopped at arbitrary byte
// boundaries — a hello glued to the first round, headers split from
// payloads, two messages in one read — must be served exactly like one
// whose every read is a message: the hub reads through a buffer and
// may not assume alignment.
func TestHubPlaneHubDecodesChunkedStream(t *testing.T) {
	for _, chunk := range []int{1, 3, 7, 1000, 1 << 20} {
		t.Run(fmt.Sprint(chunk), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hub := NewHub(2, comm.CostModel{}, ln)
			t.Cleanup(hub.Close)
			var samples atomic.Int64
			hub.OnSamples(func(p []byte) {
				if string(p) == "smp" {
					samples.Add(1)
				}
			})
			c0, err := Dial("tcp", ln.Addr().String(), 0, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c0.Close() })
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { raw.Close() })
			// Worker 1's job as a byte stream: the hello glued to the
			// set-up crossing's arrival (frames may only flow once a
			// release has proved the whole party joined); then per round
			// a sample, a frame for worker 0, the flush report and the
			// arrival, and — paced by the hub's releases, as a real
			// worker is — the second arrival.
			const rounds = 3
			frame := func(r int) []byte {
				p := make([]byte, 5000+r)
				framePattern(p, r, 1, 0)
				return p
			}
			scripted := make(chan error, 1)
			go func() {
				var report [16]byte
				var zero [8]byte
				in := bufio.NewReader(raw)
				hello := append(msg(kHello, 1, 1, nil), msg(kArrive, 1, 0, zero[:])...)
				if err := writeChunked(raw, hello, chunk); err != nil {
					scripted <- err
					return
				}
				if err := awaitKind(in, kRelease); err != nil {
					scripted <- err
					return
				}
				var next []byte
				for r := 0; r < rounds; r++ {
					binary.LittleEndian.PutUint64(report[:], uint64(len(frame(r))))
					next = append(next, msg(kSamples, 1, 1, []byte("smp"))...)
					next = append(next, msg(kFrame, 1, 0, frame(r))...)
					next = append(next, msg(kFlush, 1, 0, report[:])...)
					next = append(next, msg(kArrive, 1, 0, zero[:])...)
					for _, part := range [][]byte{next, msg(kArrive, 1, 0, zero[:])} {
						if err := writeChunked(raw, part, chunk); err != nil {
							scripted <- err
							return
						}
						if err := awaitKind(in, kRelease); err != nil {
							scripted <- err
							return
						}
					}
					next = next[:0]
				}
				scripted <- writeChunked(raw, msg(kResult, 1, 1, []byte("r1")), chunk)
			}()

			ep, bar := c0.Endpoint(0), c0.Barrier()
			if !bar.Wait() {
				t.Fatalf("set-up crossing aborted: %v", c0.Err())
			}
			for r := 0; r < rounds; r++ {
				if err := ep.Flush(); err != nil {
					t.Fatal(err)
				}
				if !bar.Wait() {
					t.Fatalf("round %d: barrier aborted: %v", r, c0.Err())
				}
				if got := ep.In(1).Unread(); !bytes.Equal(got, frame(r)) {
					t.Fatalf("round %d: %d bytes from the scripted worker, want %d, or they differ", r, len(got), len(frame(r)))
				}
				if !bar.Wait() {
					t.Fatalf("round %d: barrier aborted: %v", r, c0.Err())
				}
				ep.Release()
			}
			if err := <-scripted; err != nil {
				t.Fatal(err)
			}
			if err := c0.SendResult([]byte("r0")); err != nil {
				t.Fatal(err)
			}
			blobs, errs, err := hub.WaitResults(5 * time.Second)
			if err != nil || len(errs) != 0 || len(blobs) != 2 || string(blobs[1]) != "r1" {
				t.Fatalf("results %q, errors %v, %v", blobs, errs, err)
			}
			if got := samples.Load(); got != rounds {
				t.Errorf("%d samples decoded, want %d", got, rounds)
			}
			if st := hub.Stats(); st.Rounds != rounds || hub.DataBytes() != st.NetworkBytes {
				t.Errorf("hub accounted %+v, relayed %d bytes", st, hub.DataBytes())
			}
		})
	}
}

// dialScriptedHub dials a hub the test scripts by hand: it returns the
// client and the hub's end of its connection, the hello already read.
func dialScriptedHub(t *testing.T, m int) (*Client, net.Conn, *bufio.Reader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := Dial("tcp", ln.Addr().String(), 0, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	hubSide, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hubSide.Close() })
	in := bufio.NewReader(hubSide)
	if err := awaitKind(in, kHello); err != nil {
		t.Fatal(err)
	}
	return c, hubSide, in
}

// The client's read loop is buffered the same way: frames and releases
// that arrive chopped at arbitrary boundaries must stage and release
// exactly as message-aligned ones do.
func TestHubPlaneClientDecodesChunkedStream(t *testing.T) {
	for _, chunk := range []int{1, 3, 7, 1000, 1 << 20} {
		t.Run(fmt.Sprint(chunk), func(t *testing.T) {
			c, hubSide, in := dialScriptedHub(t, 3)

			// Per round, once the client has arrived: the two remote
			// workers' frames and the release behind them.
			const rounds = 3
			frame := func(r, src int) []byte {
				p := make([]byte, 3000*src+r)
				framePattern(p, r, src, 0)
				return p
			}
			scripted := make(chan error, 1)
			go func() {
				for r := 0; r < rounds; r++ {
					if err := awaitKind(in, kArrive); err != nil {
						scripted <- err
						return
					}
					var agg [8]byte
					binary.LittleEndian.PutUint64(agg[:], uint64(40+r))
					batch := msg(kFrame, 1, 0, frame(r, 1))
					batch = append(batch, msg(kFrame, 2, 0, frame(r, 2))...)
					batch = append(batch, msg(kRelease, 0, 0, agg[:])...)
					if err := writeChunked(hubSide, batch, chunk); err != nil {
						scripted <- err
						return
					}
				}
				scripted <- nil
			}()

			ep, bar := c.Endpoint(0), c.Barrier()
			for r := 0; r < rounds; r++ {
				if err := ep.Flush(); err != nil {
					t.Fatal(err)
				}
				sum, ok := bar.AllReduce(1)
				if !ok || sum != uint64(40+r) {
					t.Fatalf("round %d: release carried %d (ok=%v), want %d: %v", r, sum, ok, 40+r, c.Err())
				}
				for src := 1; src <= 2; src++ {
					if got := ep.In(src).Unread(); !bytes.Equal(got, frame(r, src)) {
						t.Fatalf("round %d: %d bytes from worker %d, want %d, or they differ", r, len(got), src, len(frame(r, src)))
					}
				}
				ep.Release()
			}
			if err := <-scripted; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A hostile header is no safer for sitting in the middle of a batch
// the reader already buffered: the hub must drop that worker's
// connection and fail the job, the client must abort its barrier, and
// neither may act on the declared length. A retired kind number is as
// unknown to both as any other.
func TestHubPlaneHostileHeaderInsideBatch(t *testing.T) {
	hostile := [][]byte{
		{99, 0, 0, 0, 0, 0, 0, 0, 0},                          // unknown kind
		{kFrame, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},          // 4 GiB payload
		msg(kFlush, 1, 0, []byte("short")),                    // flush report of the wrong length
		msg(kFrame, 0, 1, []byte("frame from another range")), // src outside the sender's range
	}
	for _, k := range retiredKinds {
		hostile = append(hostile, msg(k, 1, 0, make([]byte, 8)))
	}
	for i, bad := range hostile {
		t.Run(fmt.Sprint("hub/", i), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hub := NewHub(2, comm.CostModel{}, ln)
			t.Cleanup(hub.Close)
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { raw.Close() })
			var report [16]byte
			batch := msg(kHello, 1, 1, nil)
			batch = append(batch, msg(kFlush, 1, 0, report[:])...)
			batch = append(batch, bad...)
			batch = append(batch, msg(kFlush, 1, 0, report[:])...)
			if _, err := raw.Write(batch); err != nil {
				t.Fatal(err)
			}
			raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.Copy(io.Discard, raw); err != nil {
				t.Fatalf("the hub kept the connection open: %v", err)
			}
			_, errs, err := hub.WaitResults(5 * time.Second)
			if err != nil || len(errs) == 0 || !errors.Is(errs[0], ErrWorkerLost) {
				t.Fatalf("hub errors %v, %v; want the worker declared lost", errs, err)
			}
		})
	}
	for i, bad := range hostile {
		if i == 2 || i == 3 {
			continue // checks only the hub makes: flush reports and frame routes are worker-sent
		}
		t.Run(fmt.Sprint("client/", i), func(t *testing.T) {
			c, hubSide, _ := dialScriptedHub(t, 2)
			var agg [8]byte
			batch := msg(kFrame, 1, 0, []byte("fine"))
			batch = append(batch, bad...)
			batch = append(batch, msg(kRelease, 0, 0, agg[:])...)
			if _, err := hubSide.Write(batch); err != nil {
				t.Fatal(err)
			}
			if c.Barrier().Wait() {
				t.Fatal("the barrier released past a hostile header")
			}
			if c.Err() == nil {
				t.Fatal("the client recorded no transport error")
			}
		})
	}
}

// raggedReader hands out a stream in reads of cycling odd sizes.
type raggedReader struct {
	r     io.Reader
	sizes []int
	i     int
}

func (r *raggedReader) Read(p []byte) (int, error) {
	n := min(len(p), r.sizes[r.i%len(r.sizes)])
	r.i++
	return r.r.Read(p[:n])
}

// The pump's reader hands payloads out in place from one buffer that
// compacts and grows under it. Whatever the sizes of the messages and
// of the reads that deliver them — payloads cut anywhere, messages
// larger than the buffer, a small one behind a large one — every
// payload must come out byte-exact, the buffer must end no larger than
// the largest message needs, and the stream must end in io.EOF on a
// message boundary and in io.ErrUnexpectedEOF anywhere else.
func TestMsgReaderInPlacePayloads(t *testing.T) {
	sizes := []int{0, 8, 16, 5000, connBufSize - headerLen, connBufSize, 3, connBufSize + 1, 200_000, 1, 70_000, 70_000, 12}
	var stream []byte
	for i, n := range sizes {
		p := make([]byte, n)
		framePattern(p, i, 1, 2)
		stream = append(stream, msg(kFrame, uint16(i), 0, p)...)
	}
	for name, reads := range map[string]func(io.Reader) io.Reader{
		"whole":       func(r io.Reader) io.Reader { return r },
		"one byte":    iotest.OneByteReader,
		"half":        iotest.HalfReader,
		"ragged":      func(r io.Reader) io.Reader { return &raggedReader{r: r, sizes: []int{7, 4096, 1, 65536, 9, 30000}} },
		"data+EOF":    iotest.DataErrReader,
		"ragged+into": func(r io.Reader) io.Reader { return &raggedReader{r: r, sizes: []int{13, 100_000, 2}} },
	} {
		t.Run(name, func(t *testing.T) {
			before := hubBuffered.Load()
			flushes := 0
			m := msgReader{conn: reads(bytes.NewReader(stream)), buf: make([]byte, connBufSize), beforeRead: func() { flushes++ }}
			for i, n := range sizes {
				kind, a, _, got, err := m.header()
				if err != nil || kind != kFrame || int(a) != i || got != n {
					t.Fatalf("message %d: header (%d, %d, %d, %v), want a %d-byte frame", i, kind, a, got, err, n)
				}
				want := make([]byte, n)
				framePattern(want, i, 1, 2)
				var p []byte
				if name == "ragged+into" && i%2 == 1 {
					p = make([]byte, n)
					err = m.readInto(p)
				} else {
					p, err = m.payload(n)
				}
				if err != nil || !bytes.Equal(p, want) {
					t.Fatalf("message %d: payload of %d bytes wrong (%v)", i, n, err)
				}
			}
			if _, _, _, _, err := m.header(); err != io.EOF {
				t.Fatalf("end of stream: %v, want io.EOF", err)
			}
			if flushes == 0 {
				t.Error("beforeRead never ran")
			}
			if grown := hubBuffered.Load() - before; grown != int64(len(m.buf)-connBufSize) {
				t.Errorf("gauge moved by %d, buffer grew by %d", grown, len(m.buf)-connBufSize)
			}
			if limit := 2 * (200_000 + headerLen); len(m.buf) > limit {
				t.Errorf("buffer ended at %d bytes, want at most %d", len(m.buf), limit)
			}
			hubBuffered.Add(-int64(len(m.buf) - connBufSize))
		})
	}
	for cut := 1; cut < headerLen+16; cut++ {
		m := msgReader{conn: bytes.NewReader(msg(kFlush, 0, 0, make([]byte, 16))[:cut]), buf: make([]byte, connBufSize)}
		_, _, _, n, err := m.header()
		if err == nil {
			_, err = m.payload(n)
		}
		if err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut after %d bytes: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// dialParty brings up a hub plus procs clients hosting m workers in
// contiguous ranges over network ("tcp" or "unix"), co-hosting workers
// when procs < m, every client dialed with the given DataPlane name.
func dialParty(t *testing.T, network, plane string, m, procs int) (*Hub, []*Client) {
	t.Helper()
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(t.TempDir(), "hub.sock")
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(m, comm.CostModel{}, ln)
	t.Cleanup(hub.Close)
	per := (m + procs - 1) / procs
	clients := make([]*Client, procs)
	for i := range clients {
		c, err := DialConfig(Config{Network: network, Addr: ln.Addr().String(),
			Lo: i * per, Hi: min((i+1)*per, m) - 1, M: m, DataPlane: plane})
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	if err := hub.WaitJoined(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return hub, clients
}

// The hub relays every byte that leaves a process: its counter tracks
// the whole exchange volume with one worker per process, and the volume
// less what co-hosted workers sent each other — which never touches a
// socket — with two.
func TestHubPlaneRelaysDataBytes(t *testing.T) {
	g := graph.Undirectify(graph.RMAT(7, 4, 3, graph.RMATOptions{NoSelfLoops: true}))
	want := seq.ConnectedComponents(g)
	wcc, _ := algorithms.Lookup("wcc")
	for _, tc := range []struct{ m, procs int }{{2, 2}, {4, 2}} {
		t.Run(fmt.Sprintf("%dx%d", tc.procs, tc.m/tc.procs), func(t *testing.T) {
			hub, clients := dialParty(t, "tcp", DataPlaneHub, tc.m, tc.procs)
			part := partition.MustHash(g.NumVertices(), tc.m)
			frags := frag.Build(g, part)
			partials := make([][]graph.VertexID, tc.procs)
			var wg sync.WaitGroup
			for i := range clients {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					o := algorithms.Options{Part: part, Frags: frags, MaxSupersteps: 100000, Fabric: clients[i]}
					res, err := wcc.Run(algorithms.EngineChannel, algorithms.DefaultVariant, g, o, algorithms.Params{})
					if err != nil {
						t.Errorf("process %d: %v", i, err)
						return
					}
					partials[i] = res.Labels
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			per := tc.m / tc.procs
			for v := range want {
				if got := partials[part.Owner(graph.VertexID(v))/per][v]; got != want[v] {
					t.Fatalf("vertex %d: got %d want %d", v, got, want[v])
				}
			}
			var coHosted int64
			for i, c := range clients {
				for dst, b := range c.Stats().PeerBytes {
					if dst/per == i {
						coHosted += b
					}
				}
			}
			if (coHosted != 0) != (per > 1) {
				t.Fatalf("%d co-hosted bytes with %d workers per process", coHosted, per)
			}
			if db, net := hub.DataBytes(), hub.Stats().NetworkBytes; db != net-coHosted {
				t.Errorf("hub relayed %d data bytes, flush reports accounted %d of which %d co-hosted — the difference should be what it relayed", db, net, coHosted)
			} else if db == 0 {
				t.Error("hub relayed no data bytes")
			}
		})
	}
}

// Nothing in the transport itself bounds a receiver: a sender that
// flushes round after round without ever crossing the barrier lands
// every round in its silent peer's pending buffers, whose memory grows
// with the volume sent. No engine drives an endpoint that way; the
// bound comes from the round protocol (next test), not from the wire.
func TestHubPlaneSenderUnboundedMemoryGrows(t *testing.T) {
	const rounds, frame = 40, 64 << 10
	hub, clients := dialParty(t, "tcp", DataPlaneHub, 2, 2)
	ep := clients[0].eps[0]
	for i := 0; i < rounds; i++ {
		ep.Out(1).Extend(frame)
		if err := ep.Flush(); err != nil {
			t.Fatalf("hub-plane sender blocked at flush %d: %v", i, err)
		}
	}
	rep := clients[1].eps[0]
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep.mu.Lock()
		staged := rep.pending[0].Len()
		rep.mu.Unlock()
		if staged >= rounds*frame {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("receiver staged %d of %d bytes", staged, rounds*frame)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if db := hub.DataBytes(); db < rounds*frame {
		t.Errorf("hub relayed %d bytes, want >= %d", db, rounds*frame)
	}
}

// The hub plane has no credit window, and needs none: under the
// engines' round protocol (Flush, crossing, In, reducing crossing,
// Release) no sender gets a round ahead of its slowest receiver, so a
// receiver's pending buffers never hold more than one round. Worker 1
// dawdles before every In while worker 0 runs flat out; before each
// swap, every pending buffer of each worker must hold exactly the one
// frame its peer sent it that round.
func TestHubPlanePendingBoundedByOneRound(t *testing.T) {
	const m, rounds = 2, 20
	_, clients := dialParty(t, "tcp", DataPlaneHub, m, m)
	size := func(round, src int) int { return 64<<10 + 37*round + src }
	var wg sync.WaitGroup
	for w := 0; w < m; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			ep, bar := c.eps[0], c.Barrier()
			src := 1 - w
			for r := 0; r < rounds; r++ {
				framePattern(ep.Out(src).Extend(size(r, w)), r, w, src)
				if err := ep.Flush(); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if !bar.Wait() {
					t.Errorf("worker %d round %d: barrier aborted", w, r)
					return
				}
				if w == 1 {
					time.Sleep(2 * time.Millisecond) // a slow receiver: the sender may run ahead if anything lets it
				}
				ep.mu.Lock()
				pending := ep.pending[src].Len()
				ep.mu.Unlock()
				if want := size(r, src); pending != want {
					t.Errorf("worker %d round %d: %d bytes pending from worker %d before the swap, want exactly its one frame of %d", w, r, pending, src, want)
					return
				}
				want := make([]byte, size(r, src))
				framePattern(want, r, src, w)
				if got := ep.In(src).Unread(); !bytes.Equal(got, want) {
					t.Errorf("worker %d round %d: frame from %d differs", w, r, src)
					return
				}
				if _, ok := bar.AllReduce(0); !ok {
					t.Errorf("worker %d round %d: reduce aborted", w, r)
					return
				}
				ep.Release()
			}
		}(w)
	}
	wg.Wait()
}

// DataPlane survives only as a deprecated alias: every accepted name
// relays through the hub, and a name it never had is still refused.
func TestDataPlaneAliasesRunTheHub(t *testing.T) {
	hub, clients := dialParty(t, "unix", DataPlaneP2PAdaptive, 2, 2)
	const n = 100
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := c.Endpoint(w)
			ep.Out(1 - w).Extend(n)
			if err := ep.Flush(); err != nil {
				t.Error(err)
				return
			}
			if !c.Barrier().Wait() {
				t.Errorf("worker %d: barrier aborted", w)
				return
			}
			if got := ep.In(1 - w).Len(); got != n {
				t.Errorf("worker %d received %d bytes, want %d", w, got, n)
			}
		}()
	}
	wg.Wait()
	if db := hub.DataBytes(); db != 2*n {
		t.Fatalf("hub relayed %d bytes under %q, want %d", db, DataPlaneP2PAdaptive, 2*n)
	}
	if _, err := DialConfig(Config{Network: "unix", Addr: "unused", Lo: 0, Hi: 0, M: 1, DataPlane: "mesh"}); err == nil {
		t.Fatal(`DialConfig accepted DataPlane "mesh"`)
	}
}

// The wire barrier must reduce identically on a party dialed under the
// deprecated "p2p" name: that name now runs the hub, barrier included.
func TestP2PWireBarrierAllReduce(t *testing.T) {
	const m = 4
	_, clients := dialParty(t, "tcp", DataPlaneP2P, m, m)
	var wg sync.WaitGroup
	sums := make([]uint64, m)
	oks := make([]bool, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bar := clients[i].Barrier()
			for round := 0; round < 20; round++ {
				sums[i], oks[i] = bar.AllReduce(uint64(i + 1))
				if !oks[i] || sums[i] != m*(m+1)/2 {
					return
				}
				if !bar.Wait() {
					oks[i] = false
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < m; i++ {
		if !oks[i] || sums[i] != m*(m+1)/2 {
			t.Fatalf("client %d: sum=%d ok=%v want %d true", i, sums[i], oks[i], m*(m+1)/2)
		}
	}
}

// Regression: a worker that has flushed its round and is blocked at the
// barrier waiting for a receiver that dies mid-round must observe the
// abort promptly — the hub turns the lost connection into an abort —
// instead of waiting forever for a crossing that cannot come.
func TestReceiverDeathWakesBlockedSender(t *testing.T) {
	const frame = 64 << 10
	_, clients := dialParty(t, "tcp", DataPlaneHub, 2, 2)
	c0 := clients[0]
	ep := c0.eps[0]
	done := make(chan bool, 1)
	go func() {
		ep.Out(1).Extend(frame)
		if err := ep.Flush(); err != nil {
			done <- false
			return
		}
		done <- c0.Barrier().Wait()
	}()

	select {
	case ok := <-done:
		t.Fatalf("sender left the round before its receiver arrived (ok=%v)", ok)
	case <-time.After(50 * time.Millisecond):
	}
	clients[1].Close() // the receiver "dies" mid-round
	select {
	case ok := <-done:
		if ok {
			t.Error("blocked sender crossed the barrier after receiver death")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender goroutine stuck at the barrier after receiver death")
	}
	if !c0.bar.Aborted() {
		t.Error("barrier not aborted after receiver death")
	}
	if c0.Err() == nil {
		t.Error("client recorded no transport error after receiver death")
	}
}
