package ser

import (
	"encoding/binary"
	"math"
)

// Codec describes how a message value of type T is encoded into and
// decoded from a Buffer. Channels are generic over the message type and
// take a Codec at construction, mirroring the paper's C++ templates where
// the message type parameterizes each channel.
//
// Encode and Decode must be inverses: Decode(buf) after Encode(buf, v)
// yields a value equal to v, and must consume exactly the bytes Encode
// produced.
//
// Code that holds a whole slice of values — a ScatterCombine frame, a
// checkpoint state slice — goes through EncodeSlice/DecodeSlice instead
// of calling the codec per value. The bytes are the same; a codec whose
// values have a fixed width additionally implements the slice forms
// itself (see sliceCodec) and then costs one call per slice.
type Codec[T any] interface {
	Encode(b *Buffer, v T)
	Decode(b *Buffer) T
}

// sliceCodec is the bulk form of a Codec. EncodeSlice must append
// exactly the bytes a loop of Encode would; DecodeSlice fills out from
// exactly the bytes a loop of Decode would consume and panics like
// Decode when they are not there. The built-in fixed-width codecs
// implement it: one Extend to write a slice, one bounds check to read it.
type sliceCodec[T any] interface {
	EncodeSlice(b *Buffer, vs []T)
	DecodeSlice(b *Buffer, out []T)
}

// EncodeSlice appends the encodings of vs in order (no length prefix):
// through the codec's own slice form when it has one, else value by
// value.
func EncodeSlice[T any](b *Buffer, c Codec[T], vs []T) {
	if sc, ok := c.(sliceCodec[T]); ok {
		sc.EncodeSlice(b, vs)
		return
	}
	for _, v := range vs {
		c.Encode(b, v)
	}
}

// DecodeSlice decodes len(out) values into out, the inverse of
// EncodeSlice. It panics on a short buffer exactly where the per-value
// Decode would.
func DecodeSlice[T any](b *Buffer, c Codec[T], out []T) {
	if sc, ok := c.(sliceCodec[T]); ok {
		sc.DecodeSlice(b, out)
		return
	}
	for i := range out {
		out[i] = c.Decode(b)
	}
}

// FuncCodec adapts a pair of functions to a Codec.
type FuncCodec[T any] struct {
	Enc func(b *Buffer, v T)
	Dec func(b *Buffer) T
}

// Encode implements Codec.
func (c FuncCodec[T]) Encode(b *Buffer, v T) { c.Enc(b, v) }

// Decode implements Codec.
func (c FuncCodec[T]) Decode(b *Buffer) T { return c.Dec(b) }

// Uint32Codec encodes uint32 values fixed-width.
type Uint32Codec struct{}

func (Uint32Codec) Encode(b *Buffer, v uint32) { b.WriteUint32(v) }
func (Uint32Codec) Decode(b *Buffer) uint32    { return b.ReadUint32() }

func (Uint32Codec) EncodeSlice(b *Buffer, vs []uint32) {
	p := b.Extend(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(p[4*i:], v)
	}
}

func (Uint32Codec) DecodeSlice(b *Buffer, out []uint32) {
	p := b.next(4 * len(out))
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
}

// Uint64Codec encodes uint64 values fixed-width.
type Uint64Codec struct{}

func (Uint64Codec) Encode(b *Buffer, v uint64) { b.WriteUint64(v) }
func (Uint64Codec) Decode(b *Buffer) uint64    { return b.ReadUint64() }

func (Uint64Codec) EncodeSlice(b *Buffer, vs []uint64) {
	p := b.Extend(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(p[8*i:], v)
	}
}

func (Uint64Codec) DecodeSlice(b *Buffer, out []uint64) {
	p := b.next(8 * len(out))
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
}

// Int64Codec encodes int64 values as zig-zag varints.
type Int64Codec struct{}

func (Int64Codec) Encode(b *Buffer, v int64) { b.WriteVarint(v) }
func (Int64Codec) Decode(b *Buffer) int64    { return b.ReadVarint() }

// Float64Codec encodes float64 values fixed-width.
type Float64Codec struct{}

func (Float64Codec) Encode(b *Buffer, v float64) { b.WriteFloat64(v) }
func (Float64Codec) Decode(b *Buffer) float64    { return b.ReadFloat64() }

func (Float64Codec) EncodeSlice(b *Buffer, vs []float64) {
	p := b.Extend(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v))
	}
}

func (Float64Codec) DecodeSlice(b *Buffer, out []float64) {
	p := b.next(8 * len(out))
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// Float32Codec encodes float32 values fixed-width.
type Float32Codec struct{}

func (Float32Codec) Encode(b *Buffer, v float32) { b.WriteFloat32(v) }
func (Float32Codec) Decode(b *Buffer) float32    { return b.ReadFloat32() }

func (Float32Codec) EncodeSlice(b *Buffer, vs []float32) {
	p := b.Extend(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(v))
	}
}

func (Float32Codec) DecodeSlice(b *Buffer, out []float32) {
	p := b.next(4 * len(out))
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
}

// BoolCodec encodes bool values as one byte.
type BoolCodec struct{}

func (BoolCodec) Encode(b *Buffer, v bool) { b.WriteBool(v) }
func (BoolCodec) Decode(b *Buffer) bool    { return b.ReadBool() }

func (BoolCodec) EncodeSlice(b *Buffer, vs []bool) {
	p := b.Extend(len(vs))
	for i, v := range vs {
		p[i] = 0
		if v {
			p[i] = 1
		}
	}
}

func (BoolCodec) DecodeSlice(b *Buffer, out []bool) {
	p := b.next(len(out))
	for i := range out {
		out[i] = p[i] != 0
	}
}

// Pair holds two values; PairCodec composes two codecs. Used for e.g.
// (distance, parent) messages in weighted algorithms.
type Pair[A, B any] struct {
	First  A
	Second B
}

// PairCodec encodes a Pair by concatenating its element encodings.
type PairCodec[A, B any] struct {
	A Codec[A]
	B Codec[B]
}

func (c PairCodec[A, B]) Encode(b *Buffer, v Pair[A, B]) {
	c.A.Encode(b, v.First)
	c.B.Encode(b, v.Second)
}

func (c PairCodec[A, B]) Decode(b *Buffer) Pair[A, B] {
	a := c.A.Decode(b)
	s := c.B.Decode(b)
	return Pair[A, B]{First: a, Second: s}
}

// SizeOf returns the encoded size of v under codec c. Used by channels
// that need the size of one message ahead of writing (e.g. for capacity
// planning); it encodes into a scratch buffer.
func SizeOf[T any](c Codec[T], v T) int {
	var b Buffer
	c.Encode(&b, v)
	return b.Len()
}
