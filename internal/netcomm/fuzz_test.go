package netcomm

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"testing"
	"testing/iotest"
)

// The peer directory crosses a process boundary: arbitrary bytes must
// decode to an error or a directory that satisfies every invariant the
// mesh relies on (sorted, contiguous, covering 0..m-1), never panic.
func FuzzPeerDirectory(f *testing.F) {
	f.Add(encodePeerDirectory(nil), 1)
	f.Add(encodePeerDirectory([]peerInfo{
		{lo: 0, hi: 0, network: "tcp", addr: "127.0.0.1:9"},
	}), 1)
	f.Add(encodePeerDirectory([]peerInfo{
		{lo: 0, hi: 1, network: "unix", addr: "/tmp/a.sock"},
		{lo: 2, hi: 3, network: "unix", addr: "/tmp/b.sock"},
	}), 4)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}, 8)
	f.Fuzz(func(t *testing.T, data []byte, m int) {
		if m <= 0 || m > 1<<16 {
			m = 8
		}
		dir, err := decodePeerDirectory(data, m)
		if err != nil {
			return
		}
		next := 0
		for _, p := range dir {
			if p.lo != next || p.hi < p.lo || p.hi >= m {
				t.Fatalf("accepted directory violates range invariants: %+v (m=%d)", dir, m)
			}
			next = p.hi + 1
		}
		if next != m {
			t.Fatalf("accepted directory covers %d of %d workers: %+v", next, m, dir)
		}
		// A decoded directory must survive a round trip unchanged.
		again, err := decodePeerDirectory(encodePeerDirectory(dir), m)
		if err != nil {
			t.Fatalf("re-encoded directory rejected: %v", err)
		}
		for i := range dir {
			if dir[i] != again[i] {
				t.Fatalf("directory round trip changed entry %d: %+v != %+v", i, dir[i], again[i])
			}
		}
	})
}

// The listen announcement is the other worker-supplied p2p payload.
func FuzzListenAnnouncement(f *testing.F) {
	f.Add(encodeListen("tcp", "127.0.0.1:12345"))
	f.Add(encodeListen("unix", "/tmp/x/data.sock"))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		network, addr, err := decodeListen(data)
		if err != nil {
			return
		}
		n2, a2, err := decodeListen(encodeListen(network, addr))
		if err != nil || n2 != network || a2 != addr {
			t.Fatalf("listen round trip changed (%q,%q) -> (%q,%q,%v)", network, addr, n2, a2, err)
		}
	})
}

// Every connection — hub, and peer DATA/DONE/CREDIT streams — parses
// messages through readHeader, the hub connection's two ends through a
// buffered reader over whatever the socket hands them. Arbitrary bytes
// taken as a stream of messages must yield, header by header, an error
// or a validated (kind, length) pair, and the same sequence whether the
// stream arrives whole, a byte at a time or in ragged reads: decoding
// may not depend on where a read ends.
func FuzzWireHeader(f *testing.F) {
	var valid [headerLen]byte
	valid[0] = kData
	f.Add(valid[:])
	valid[0] = kCredit
	f.Add(append(valid[:], 1, 2, 3))
	f.Add([]byte{0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	batch := msg(kSamples, 0, 1, []byte("sample"))
	batch = append(batch, msg(kFrame, 0, 2, bytes.Repeat([]byte{7}, 300))...)
	batch = append(batch, msg(kFlush, 0, 0, make([]byte, 16))...)
	f.Add(batch)
	f.Add(append(batch, 99, 0, 0, 0, 0, 0, 0, 0, 0)) // hostile header behind a legal batch
	f.Fuzz(func(t *testing.T, data []byte) {
		type header struct {
			kind uint8
			a, b uint16
			n    int
		}
		// decode walks the stream: headers until one is rejected, a
		// payload is cut short, or the bytes run out.
		decode := func(r io.Reader) (hs []header, stop string) {
			br := bufio.NewReaderSize(r, 16)
			for {
				kind, a, b, n, err := readHeader(br)
				if err != nil {
					return hs, err.Error()
				}
				if kind < kHello || kind > kPromote {
					t.Fatalf("accepted unknown kind %d", kind)
				}
				if n < 0 || n > maxPayload {
					t.Fatalf("accepted payload length %d", n)
				}
				hs = append(hs, header{kind, a, b, n})
				if _, err := br.Discard(n); err != nil {
					return hs, "payload: " + err.Error()
				}
			}
		}
		want, wantStop := decode(bytes.NewReader(data))
		for name, r := range map[string]io.Reader{
			"one byte at a time": iotest.OneByteReader(bytes.NewReader(data)),
			"half reads":         iotest.HalfReader(bytes.NewReader(data)),
		} {
			got, stop := decode(r)
			if !slices.Equal(got, want) || stop != wantStop {
				t.Fatalf("%s: decoded %v (%s), whole stream decoded %v (%s)", name, got, stop, want, wantStop)
			}
		}
		// The hub's in-place reader must see the same messages. A payload
		// the stream cannot hold is not asked for: its declared length
		// would size the buffer.
		m := msgReader{conn: iotest.HalfReader(bytes.NewReader(data)), buf: make([]byte, 2*headerLen)}
		var got []header
		for {
			kind, a, b, n, err := m.header()
			if err != nil {
				break
			}
			got = append(got, header{kind, a, b, n})
			if n > len(data) {
				break
			}
			if _, err := m.payload(n); err != nil {
				break
			}
		}
		hubBuffered.Add(-int64(len(m.buf) - 2*headerLen))
		if !slices.Equal(got, want) {
			t.Fatalf("in-place reader decoded %v, buffered reader %v", got, want)
		}
	})
}

// A window-resize frame arrives from the remote peer mid-run and is fed
// straight into the sender's credit arithmetic: arbitrary payloads must
// decode to an error or a window in (0, maxPayload], never to a value
// that would wedge or overflow the sender, and every valid window must
// survive a round trip exactly.
func FuzzResizeFrame(f *testing.F) {
	f.Add(encodeResize(DefaultWindowBytes))
	f.Add(encodeResize(DefaultWindowMin))
	f.Add(encodeResize(1))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := decodeResize(data)
		if err != nil {
			return
		}
		if w <= 0 || w > maxPayload {
			t.Fatalf("accepted out-of-range window %d", w)
		}
		again, err := decodeResize(encodeResize(w))
		if err != nil || again != w {
			t.Fatalf("resize round trip changed %d -> (%d, %v)", w, again, err)
		}
	})
}

// A promotion request crosses two trust boundaries (worker -> hub ->
// worker): arbitrary payloads must decode to an error or a worker range
// that satisfies the directory invariants, and valid requests must
// round-trip exactly.
func FuzzPromotionFrame(f *testing.F) {
	f.Add(encodePromote(0, 0, 0))
	f.Add(encodePromote(2, 3, DefaultPromoteBytes))
	f.Add(encodePromote(100, 200, 1<<40))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		lo, hi, relayed, err := decodePromote(data)
		if err != nil {
			return
		}
		if lo < 0 || hi < lo || hi >= maxDirectoryPeers || relayed < 0 {
			t.Fatalf("accepted invalid promotion (lo=%d hi=%d relayed=%d)", lo, hi, relayed)
		}
		l2, h2, r2, err := decodePromote(encodePromote(lo, hi, relayed))
		if err != nil || l2 != lo || h2 != hi || r2 != relayed {
			t.Fatalf("promotion round trip changed (%d,%d,%d) -> (%d,%d,%d,%v)",
				lo, hi, relayed, l2, h2, r2, err)
		}
	})
}
