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

// Integer is the set of types VarintCodec encodes.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// VarintCodec encodes integers as zig-zag varints, so small magnitudes
// of either sign take few bytes — the codec of integer tables in
// checkpoint blobs (local indices, offsets, packed addresses, -1 for
// none). An unsigned value past the int64 range round-trips through its
// two's complement.
type VarintCodec[T Integer] struct{}

func (VarintCodec[T]) Encode(b *Buffer, v T) { b.WriteVarint(int64(v)) }
func (VarintCodec[T]) Decode(b *Buffer) T    { return T(b.ReadVarint()) }

// Int64Codec encodes int64 values as zig-zag varints.
type Int64Codec = VarintCodec[int64]

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
