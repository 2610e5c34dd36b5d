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

// Unread returns the not-yet-consumed portion of the buffer without
// advancing the cursor. The slice aliases the buffer's storage; callers
// that retain it (e.g. the checkpoint frame tee) must copy.
func (b *Buffer) Unread() []byte { return b.data[b.pos:] }

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

// WriteVarint appends v using zig-zag LEB128.
func (b *Buffer) WriteVarint(v int64) {
	b.data = binary.AppendVarint(b.data, v)
}

// WriteFloat64 appends the IEEE-754 bits of v.
func (b *Buffer) WriteFloat64(v float64) {
	b.WriteUint64(math.Float64bits(v))
}

// WriteFloat32 appends the IEEE-754 bits of v.
func (b *Buffer) WriteFloat32(v float32) {
	b.WriteUint32(math.Float32bits(v))
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

// ReadFloat32 consumes an IEEE-754 float.
func (b *Buffer) ReadFloat32() float32 {
	return math.Float32frombits(b.ReadUint32())
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

// ReadBytes consumes a length-prefixed byte slice. The returned slice
// aliases the buffer's storage.
func (b *Buffer) ReadBytes() []byte {
	return b.next(int(b.ReadUvarint()))
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

// PatchUint32 overwrites the 4 bytes at offset off with v. The offset
// must point at a previously written fixed-width slot (e.g. a count
// placeholder).
func (b *Buffer) PatchUint32(off int, v uint32) {
	if off < 0 || off+4 > len(b.data) {
		panic("ser: bad patch offset")
	}
	binary.LittleEndian.PutUint32(b.data[off:], v)
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

// ReadFrame consumes a frame header and returns a sub-buffer over the
// frame body, advancing this buffer past it. The sub-buffer aliases the
// underlying storage. Hot loops should prefer ReadFrameInto, which
// reuses a caller-owned sub-buffer instead of allocating one per frame.
func (b *Buffer) ReadFrame() *Buffer {
	sub := &Buffer{}
	b.ReadFrameInto(sub)
	return sub
}

// ReadFrameInto consumes a frame header and points sub at the frame
// body, advancing this buffer past it. sub aliases the underlying
// storage and is valid until the next write to b; its previous contents
// are discarded. Reusing one sub-buffer across frames keeps the decode
// path allocation-free.
func (b *Buffer) ReadFrameInto(sub *Buffer) {
	n := int(b.ReadUint32())
	b.need(n)
	sub.data = b.data[b.pos : b.pos+n]
	sub.pos = 0
	b.pos += n
}

// NextFrame is the error-returning variant of ReadFrameInto for wire
// boundaries: bytes that arrived over a socket are not trusted, so a
// truncated header or a frame length exceeding the remaining bytes
// returns an error instead of panicking.
func (b *Buffer) NextFrame(sub *Buffer) error {
	if b.Remaining() < 4 {
		return fmt.Errorf("ser: truncated frame header: %d bytes remain", b.Remaining())
	}
	n := int(binary.LittleEndian.Uint32(b.data[b.pos:]))
	if n > b.Remaining()-4 {
		return fmt.Errorf("ser: frame length %d exceeds %d remaining bytes", n, b.Remaining()-4)
	}
	b.pos += 4
	sub.data = b.data[b.pos : b.pos+n]
	sub.pos = 0
	b.pos += n
	return nil
}

// NextUvarint is the error-returning variant of ReadUvarint for wire
// boundaries.
func (b *Buffer) NextUvarint() (uint64, error) {
	v, n := binary.Uvarint(b.data[b.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("ser: invalid uvarint at offset %d", b.pos)
	}
	b.pos += n
	return v, nil
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
