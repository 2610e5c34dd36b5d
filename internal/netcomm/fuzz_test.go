package netcomm

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"testing"
	"testing/iotest"
)

// retiredKinds are the kind numbers the wire no longer uses: every
// reader must reject a header carrying one as an unknown kind.
var retiredKinds = []uint8{8, 9, 10, 11, 12, 13, 14, 15}

// Both ends of a hub connection parse messages through a buffered
// reader over whatever the socket hands them: the client's read loop
// through readHeader, the hub's pump through msgReader. Arbitrary bytes
// taken as a stream of messages must yield, header by header, an error
// or a validated (kind, length) pair, and the same sequence whether the
// stream arrives whole, a byte at a time or in ragged reads: decoding
// may not depend on where a read ends.
func FuzzWireHeader(f *testing.F) {
	var valid [headerLen]byte
	valid[0] = kFrame
	f.Add(valid[:])
	valid[0] = kRelease
	f.Add(append(valid[:], 1, 2, 3))
	f.Add([]byte{0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	batch := msg(kSamples, 0, 1, []byte("sample"))
	batch = append(batch, msg(kFrame, 0, 2, bytes.Repeat([]byte{7}, 300))...)
	batch = append(batch, msg(kArrive, 1, 0, make([]byte, 8+reportLen))...)
	f.Add(batch)
	f.Add(append(batch, 99, 0, 0, 0, 0, 0, 0, 0, 0)) // hostile header behind a legal batch
	for _, k := range retiredKinds {
		f.Add(append(msg(kFrame, 0, 1, []byte("x")), msg(k, 0, 1, make([]byte, 8))...))
	}
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
				if kind < kHello || kind > kSamples {
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
