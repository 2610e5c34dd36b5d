package ser

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBufferRoundtripFixed(t *testing.T) {
	b := NewBuffer(16)
	b.WriteUint8(7)
	b.WriteUint32(0xDEADBEEF)
	b.WriteUint64(1 << 60)
	b.WriteFloat64(3.25)
	b.WriteBool(true)
	b.WriteBool(false)
	if got := b.ReadUint8(); got != 7 {
		t.Errorf("uint8: got %d", got)
	}
	if got := b.ReadUint32(); got != 0xDEADBEEF {
		t.Errorf("uint32: got %x", got)
	}
	if got := b.ReadUint64(); got != 1<<60 {
		t.Errorf("uint64: got %d", got)
	}
	if got := b.ReadFloat64(); got != 3.25 {
		t.Errorf("float64: got %v", got)
	}
	if got := b.ReadBool(); !got {
		t.Errorf("bool: got %v", got)
	}
	if got := b.ReadBool(); got {
		t.Errorf("bool: got %v", got)
	}
	if b.Remaining() != 0 {
		t.Errorf("remaining: %d", b.Remaining())
	}
}

func TestBufferVarints(t *testing.T) {
	cases := []int64{0, 1, -1, 127, -128, 1 << 20, -(1 << 40), math.MaxInt64, math.MinInt64}
	b := NewBuffer(64)
	for _, v := range cases {
		b.WriteVarint(v)
	}
	for _, want := range cases {
		if got := b.ReadVarint(); got != want {
			t.Errorf("varint: got %d want %d", got, want)
		}
	}
	ucases := []uint64{0, 1, 127, 128, 1 << 35, math.MaxUint64}
	b.Reset()
	for _, v := range ucases {
		b.WriteUvarint(v)
	}
	for _, want := range ucases {
		if got := b.ReadUvarint(); got != want {
			t.Errorf("uvarint: got %d want %d", got, want)
		}
	}
}

// The bulk uvarint calls write the bytes WriteUvarint writes, one value
// at a time, and read them back; values past 32 bits, truncated streams
// and unterminated values are rejected.
func TestBufferUvarintsMatchOneAtATime(t *testing.T) {
	f := func(vs []uint32, shift uint8) bool {
		for i := range vs {
			vs[i] >>= shift % 32 // every encoded width, 1 to 5 bytes
		}
		one, bulk := NewBuffer(0), NewBuffer(0)
		one.WriteUint8(9)
		bulk.WriteUint8(9)
		for _, v := range vs {
			one.WriteUvarint(uint64(v))
		}
		bulk.WriteUvarints(vs)
		if string(one.Bytes()) != string(bulk.Bytes()) {
			return false
		}
		bulk.ReadUint8()
		got := make([]uint32, len(vs))
		bulk.ReadUvarints(got)
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return bulk.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		stream []byte
		n      int
	}{
		"past 32 bits": {[]byte{0x80, 0x80, 0x80, 0x80, 0x10}, 1},
		"truncated":    {[]byte{0x05, 0x80}, 2},
		"empty":        {nil, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ReadUvarints did not panic", name)
				}
			}()
			FromBytes(tc.stream).ReadUvarints(make([]uint32, tc.n))
		}()
	}
}

func TestBufferBytesAndString(t *testing.T) {
	b := NewBuffer(0)
	b.WriteBytes([]byte{1, 2, 3})
	b.WriteString("hello")
	b.WriteBytes(nil)
	if got := b.ReadBytes(); len(got) != 3 || got[2] != 3 {
		t.Errorf("bytes: got %v", got)
	}
	if got := b.ReadString(); got != "hello" {
		t.Errorf("string: got %q", got)
	}
	if got := b.ReadBytes(); len(got) != 0 {
		t.Errorf("empty bytes: got %v", got)
	}
}

func TestBufferReset(t *testing.T) {
	b := NewBuffer(8)
	b.WriteUint32(5)
	_ = b.ReadUint32()
	b.Reset()
	if b.Len() != 0 || b.Remaining() != 0 {
		t.Errorf("reset: len=%d rem=%d", b.Len(), b.Remaining())
	}
	b.WriteUint32(9)
	if got := b.ReadUint32(); got != 9 {
		t.Errorf("after reset: got %d", got)
	}
}

func TestBufferRewind(t *testing.T) {
	b := NewBuffer(8)
	b.WriteUint32(42)
	if got := b.ReadUint32(); got != 42 {
		t.Fatalf("got %d", got)
	}
	b.Rewind()
	if got := b.ReadUint32(); got != 42 {
		t.Errorf("after rewind: got %d", got)
	}
}

func TestBufferFrames(t *testing.T) {
	b := NewBuffer(64)
	off := b.BeginFrame()
	b.WriteUint32(11)
	b.WriteUint32(22)
	b.EndFrame(off)
	off2 := b.BeginFrame()
	b.EndFrame(off2) // empty frame
	off3 := b.BeginFrame()
	b.WriteUint8(9)
	b.EndFrame(off3)

	var f1, f2, f3 Buffer
	b.ReadFrameInto(&f1)
	if f1.Len() != 8 {
		t.Fatalf("frame1 len=%d", f1.Len())
	}
	if f1.ReadUint32() != 11 || f1.ReadUint32() != 22 {
		t.Errorf("frame1 contents wrong")
	}
	b.ReadFrameInto(&f2)
	if f2.Len() != 0 {
		t.Errorf("frame2 len=%d", f2.Len())
	}
	b.ReadFrameInto(&f3)
	if f3.ReadUint8() != 9 {
		t.Errorf("frame3 contents wrong")
	}
	if b.Remaining() != 0 {
		t.Errorf("remaining=%d", b.Remaining())
	}
}

func TestBufferTruncate(t *testing.T) {
	b := NewBuffer(16)
	b.WriteUint32(1)
	mark := b.Len()
	b.WriteUint32(2)
	b.Truncate(mark)
	if b.Len() != 4 {
		t.Fatalf("len=%d", b.Len())
	}
	if got := b.ReadUint32(); got != 1 {
		t.Errorf("got %d", got)
	}
}

func TestBufferUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on underflow")
		}
	}()
	b := NewBuffer(4)
	b.WriteUint8(1)
	_ = b.ReadUint32()
}

// ReadCount bounds a count by the bytes left and by the caller's
// limit, ReadIndex an index by the caller's bound; both panic with the
// claimed value and the bytes left, and never return a negative int.
func TestBufferReadCountAndIndex(t *testing.T) {
	b := NewBuffer(16)
	b.WriteUvarint(2)
	b.WriteUvarint(3)
	b.WriteUint8(0)
	if got := b.ReadCount(2); got != 2 {
		t.Fatalf("count: got %d", got)
	}
	if got := b.ReadIndex(4); got != 3 {
		t.Fatalf("index: got %d", got)
	}
	for name, tc := range map[string]struct {
		claim uint64
		read  func(*Buffer)
		want  string
	}{
		"count past the bytes": {1 << 40, func(b *Buffer) { b.ReadCount(math.MaxInt) }, "1099511627776 entries claimed, 1 bytes remain"},
		"count past max":       {1, func(b *Buffer) { b.ReadCount(0) }, "1 entries claimed, at most 0 allowed, 1 bytes remain"},
		"index at its bound":   {1 << 40, func(b *Buffer) { b.ReadIndex(1 << 40) }, "index 1099511627776 claimed, must be below 1099511627776, 1 bytes remain"},
		"2^64-1 as a count":    {math.MaxUint64, func(b *Buffer) { b.ReadCount(math.MaxInt) }, "18446744073709551615 entries claimed"},
		"2^64-1 as an index":   {math.MaxUint64, func(b *Buffer) { b.ReadIndex(math.MaxInt) }, "index 18446744073709551615 claimed"},
	} {
		b := NewBuffer(16)
		b.WriteUvarint(tc.claim)
		b.WriteUint8(0)
		if err := Decode(func() { tc.read(b) }); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", name, err, tc.want)
		}
	}
}

// Decode returns what its function panicked with as an error, nil when
// it returns normally, and costs no allocation then.
func TestDecode(t *testing.T) {
	if err := Decode(func() { FromBytes([]byte{0x80}).ReadUvarint() }); err == nil || err.Error() != "ser: invalid uvarint" {
		t.Fatalf("panic came back as %v", err)
	}
	b, got := FromBytes([]byte{1, 7}), 0
	if err := Decode(func() { got = b.ReadCount(1) }); err != nil || got != 1 {
		t.Fatalf("clean decode: %d, %v", got, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		b.Rewind()
		_ = Decode(func() { got = int(b.ReadUint8()) })
	}); allocs != 0 {
		t.Fatalf("Decode allocates %.0f times per call", allocs)
	}
}

func TestBufferTruncateBadOffsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on bad truncate")
		}
	}()
	b := NewBuffer(4)
	b.Truncate(10)
}

// Property: any sequence of (uint32, float64, varint) triples round-trips.
func TestBufferRoundtripProperty(t *testing.T) {
	f := func(us []uint32, fs []float64, vs []int64) bool {
		b := NewBuffer(0)
		for _, u := range us {
			b.WriteUint32(u)
		}
		for _, x := range fs {
			b.WriteFloat64(x)
		}
		for _, v := range vs {
			b.WriteVarint(v)
		}
		for _, u := range us {
			if b.ReadUint32() != u {
				return false
			}
		}
		for _, x := range fs {
			got := b.ReadFloat64()
			if got != x && !(math.IsNaN(got) && math.IsNaN(x)) {
				return false
			}
		}
		for _, v := range vs {
			if b.ReadVarint() != v {
				return false
			}
		}
		return b.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: frames written back-to-back parse back to the same bodies.
func TestBufferFramesProperty(t *testing.T) {
	f := func(bodies [][]byte) bool {
		b := NewBuffer(0)
		for _, body := range bodies {
			off := b.BeginFrame()
			b.data = append(b.data, body...)
			b.EndFrame(off)
		}
		var sub Buffer
		for _, body := range bodies {
			b.ReadFrameInto(&sub)
			if sub.Len() != len(body) {
				return false
			}
			for i := range body {
				if sub.ReadUint8() != body[i] {
					return false
				}
			}
		}
		return b.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
