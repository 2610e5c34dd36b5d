// Package ser provides the binary serialization layer used by the
// communication channels. Every message that crosses a worker boundary is
// encoded into a Buffer, which lets the runtime account for communication
// volume exactly (the paper reports message size in GB for every
// experiment) and keeps the channel implementations close to the C++
// system described in the paper, where channels read and write raw
// per-destination byte buffers.
package ser

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Buffer is an append-only byte buffer with a read cursor. It is the unit
// of exchange between workers: each worker owns one outgoing Buffer per
// peer and receives one incoming Buffer per peer each exchange round.
//
// All fixed-width values are little-endian. Varint encodings follow
// encoding/binary's unsigned LEB128.
type Buffer struct {
	data []byte
	pos  int // read cursor
}

// NewBuffer returns an empty buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{data: make([]byte, 0, capacity)}
}

// FromBytes wraps b in a Buffer positioned at the start. The buffer takes
// ownership of b.
func FromBytes(b []byte) *Buffer {
	return &Buffer{data: b}
}

// Len returns the number of bytes written to the buffer.
func (b *Buffer) Len() int { return len(b.data) }

// Cap returns the capacity of the underlying storage — the memory the
// buffer retains across Resets.
func (b *Buffer) Cap() int { return cap(b.data) }

// Remaining returns the number of unread bytes.
func (b *Buffer) Remaining() int { return len(b.data) - b.pos }

// Bytes returns the underlying byte slice (written portion).
func (b *Buffer) Bytes() []byte { return b.data }

// Reset discards contents and rewinds the cursor, retaining capacity.
func (b *Buffer) Reset() {
	b.data = b.data[:0]
	b.pos = 0
}

// Rewind moves the read cursor back to the start without discarding data.
func (b *Buffer) Rewind() { b.pos = 0 }

// WriteUint8 appends one byte.
func (b *Buffer) WriteUint8(v uint8) {
	b.data = append(b.data, v)
}

// WriteUint32 appends a fixed-width 32-bit value.
func (b *Buffer) WriteUint32(v uint32) {
	b.data = binary.LittleEndian.AppendUint32(b.data, v)
}

// WriteUint64 appends a fixed-width 64-bit value.
func (b *Buffer) WriteUint64(v uint64) {
	b.data = binary.LittleEndian.AppendUint64(b.data, v)
}

// WriteUvarint appends v using unsigned LEB128.
func (b *Buffer) WriteUvarint(v uint64) {
	b.data = binary.AppendUvarint(b.data, v)
}

// WriteUvarints appends every value of vs as WriteUvarint would, with
// one size check for all of them.
func (b *Buffer) WriteUvarints(vs []uint32) {
	size := 0
	for _, v := range vs {
		size += (bits.Len32(v|1) + 6) / 7
	}
	p, k := b.Extend(size), 0
	for _, v := range vs {
		switch {
		case v < 1<<7:
			p[k] = byte(v)
			k++
		case v < 1<<14:
			p[k], p[k+1] = byte(v)|0x80, byte(v>>7)
			k += 2
		default:
			k += binary.PutUvarint(p[k:], uint64(v))
		}
	}
}

// WriteVarint appends v using zig-zag LEB128.
func (b *Buffer) WriteVarint(v int64) {
	b.data = binary.AppendVarint(b.data, v)
}

// WriteFloat64 appends the IEEE-754 bits of v.
func (b *Buffer) WriteFloat64(v float64) {
	b.WriteUint64(math.Float64bits(v))
}

// WriteBool appends a single byte 0 or 1.
func (b *Buffer) WriteBool(v bool) {
	if v {
		b.WriteUint8(1)
	} else {
		b.WriteUint8(0)
	}
}

// WriteBytes appends a length-prefixed byte slice.
func (b *Buffer) WriteBytes(p []byte) {
	b.WriteUvarint(uint64(len(p)))
	b.data = append(b.data, p...)
}

// WriteString appends a length-prefixed string.
func (b *Buffer) WriteString(s string) {
	b.WriteUvarint(uint64(len(s)))
	b.data = append(b.data, s...)
}

func (b *Buffer) need(n int) {
	if b.pos+n > len(b.data) {
		panic(fmt.Sprintf("ser: buffer underflow: need %d bytes, have %d", n, len(b.data)-b.pos))
	}
}

// ReadUint8 consumes one byte.
func (b *Buffer) ReadUint8() uint8 {
	b.need(1)
	v := b.data[b.pos]
	b.pos++
	return v
}

// ReadUint32 consumes a fixed-width 32-bit value.
func (b *Buffer) ReadUint32() uint32 {
	b.need(4)
	v := binary.LittleEndian.Uint32(b.data[b.pos:])
	b.pos += 4
	return v
}

// ReadUint64 consumes a fixed-width 64-bit value.
func (b *Buffer) ReadUint64() uint64 {
	b.need(8)
	v := binary.LittleEndian.Uint64(b.data[b.pos:])
	b.pos += 8
	return v
}

// ReadUvarint consumes an unsigned LEB128 value.
func (b *Buffer) ReadUvarint() uint64 {
	v, n := binary.Uvarint(b.data[b.pos:])
	if n <= 0 {
		panic("ser: invalid uvarint")
	}
	b.pos += n
	return v
}

// ReadUvarints fills out with the next len(out) uvarints, each read as
// ReadUvarint would; one that is invalid or above math.MaxUint32 panics.
func (b *Buffer) ReadUvarints(out []uint32) {
	data, pos := b.data, b.pos
	for i := range out {
		if pos+1 < len(data) {
			if b0 := data[pos]; b0 < 0x80 {
				out[i] = uint32(b0)
				pos++
				continue
			} else if b1 := data[pos+1]; b1 < 0x80 {
				out[i] = uint32(b0&0x7f) | uint32(b1)<<7
				pos += 2
				continue
			}
		}
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 || v > math.MaxUint32 {
			panic("ser: invalid uvarint")
		}
		out[i] = uint32(v)
		pos += n
	}
	b.pos = pos
}

// ReadCount consumes a uvarint count of entries that each take at least
// one of the bytes that follow, and returns it once it is bounded: a
// count above the bytes left or above limit panics. Every count read off
// the wire or a checkpoint goes through here (or ReadIndex) before
// anything is sized or looped by it, so a hostile count can neither
// wrap negative nor force a large allocation.
func (b *Buffer) ReadCount(limit int) int {
	n := b.ReadUvarint()
	if n > uint64(b.Remaining()) {
		panic(fmt.Sprintf("ser: %d entries claimed, %d bytes remain", n, b.Remaining()))
	}
	if int(n) > limit {
		panic(fmt.Sprintf("ser: %d entries claimed, at most %d allowed, %d bytes remain", n, limit, b.Remaining()))
	}
	return int(n)
}

// ReadIndex consumes a uvarint that must be below n — an index into n
// entries; with n = math.MaxInt, any non-negative int — and panics
// otherwise.
func (b *Buffer) ReadIndex(n int) int {
	v := b.ReadUvarint()
	if v >= uint64(max(n, 0)) {
		panic(fmt.Sprintf("ser: index %d claimed, must be below %d, %d bytes remain", v, n, b.Remaining()))
	}
	return int(v)
}

// ReadVarint consumes a zig-zag LEB128 value.
func (b *Buffer) ReadVarint() int64 {
	v, n := binary.Varint(b.data[b.pos:])
	if n <= 0 {
		panic("ser: invalid varint")
	}
	b.pos += n
	return v
}

// ReadFloat64 consumes an IEEE-754 double.
func (b *Buffer) ReadFloat64() float64 {
	return math.Float64frombits(b.ReadUint64())
}

// ReadBool consumes one byte and reports whether it is nonzero.
func (b *Buffer) ReadBool() bool {
	return b.ReadUint8() != 0
}

// next consumes n bytes and returns them; the slice aliases the buffer's
// storage.
func (b *Buffer) next(n int) []byte {
	b.need(n)
	p := b.data[b.pos : b.pos+n]
	b.pos += n
	return p
}

// ReadBitmap consumes the ⌈n/8⌉-byte bitmap of n slots UpdateSlice
// writes and returns it, aliasing the buffer's storage, with the number
// of bits set. A set bit past slot n-1 panics: a well-formed bitmap
// leaves its padding clear.
func (b *Buffer) ReadBitmap(n int) (m []byte, set int) {
	m = b.next((n + 7) >> 3)
	if n&7 != 0 && m[len(m)-1]>>(n&7) != 0 {
		panic(fmt.Sprintf("ser: bitmap of %d slots has a padding bit set", n))
	}
	for _, x := range m {
		set += bits.OnesCount8(x)
	}
	return m, set
}

// ReadBytes consumes a length-prefixed byte slice. The returned slice
// aliases the buffer's storage.
func (b *Buffer) ReadBytes() []byte {
	return b.next(b.ReadCount(math.MaxInt))
}

// ReadString consumes a length-prefixed string.
func (b *Buffer) ReadString() string {
	return string(b.ReadBytes())
}

// BeginFrame reserves a fixed 4-byte length slot and returns its offset.
// EndFrame patches the slot with the number of bytes written since. Frames
// let multiple channels multiplex one physical buffer per destination.
func (b *Buffer) BeginFrame() int {
	off := len(b.data)
	b.WriteUint32(0)
	return off
}

// EndFrame patches the frame length at off.
func (b *Buffer) EndFrame(off int) {
	n := len(b.data) - off - 4
	binary.LittleEndian.PutUint32(b.data[off:], uint32(n))
}

// Truncate discards everything written after offset n. Used to roll back
// an empty frame (a channel that had nothing to send).
func (b *Buffer) Truncate(n int) {
	if n < 0 || n > len(b.data) {
		panic("ser: bad truncate offset")
	}
	b.data = b.data[:n]
	if b.pos > n {
		b.pos = n
	}
}

// ReadFrameInto consumes a frame header and points sub at the frame
// body, advancing this buffer past it. sub aliases the underlying
// storage and is valid until the next write to b; its previous contents
// are discarded. Reusing one sub-buffer across frames keeps the decode
// path allocation-free. A header or body past the end panics like every
// read; Decode turns that into an error at a trust boundary.
func (b *Buffer) ReadFrameInto(sub *Buffer) {
	n := int(b.ReadUint32())
	b.need(n)
	sub.data = b.data[b.pos : b.pos+n]
	sub.pos = 0
	b.pos += n
}

// Extend appends n uninitialized bytes and returns the slice covering
// them, so transports can bulk-read wire payloads straight into the
// buffer's storage.
func (b *Buffer) Extend(n int) []byte {
	off := len(b.data)
	if cap(b.data)-off < n {
		grown := make([]byte, off, max(2*cap(b.data), off+n))
		copy(grown, b.data)
		b.data = grown
	}
	b.data = b.data[:off+n]
	return b.data[off:]
}

// Decode runs fn, which decodes bytes that crossed a trust boundary — a
// socket, a process, a disk — and returns what fn panicked with as an
// error, or nil. The reads above panic on hostile input (a read past the
// end, a count or index out of bounds) and so do the decoders' own
// checks; Decode is the one place the module turns those panics into
// errors, and each caller words the error for its boundary. fn returns
// its results through the variables it captures.
func Decode(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	fn()
	return nil
}
