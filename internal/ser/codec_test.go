package ser

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func roundtrip[T comparable](t *testing.T, c Codec[T], v T) {
	t.Helper()
	b := NewBuffer(0)
	c.Encode(b, v)
	if got := c.Decode(b); got != v {
		t.Errorf("roundtrip %T: got %v want %v", c, got, v)
	}
	if b.Remaining() != 0 {
		t.Errorf("%T decode did not consume encoding of %v", c, v)
	}
}

func TestBuiltinCodecs(t *testing.T) {
	roundtrip[uint32](t, Uint32Codec{}, 0)
	roundtrip[uint32](t, Uint32Codec{}, 0xFFFFFFFF)
	roundtrip[int64](t, Int64Codec{}, -12345)
	roundtrip[float64](t, Float64Codec{}, 2.5)
	roundtrip[bool](t, BoolCodec{}, true)
	roundtrip[bool](t, BoolCodec{}, false)
	roundtrip[int32](t, VarintCodec[int32]{}, -1)
	roundtrip[uint32](t, VarintCodec[uint32]{}, 0xFFFFFFFF)
	roundtrip[uint64](t, VarintCodec[uint64]{}, 1<<63|5)
}

func TestFuncCodec(t *testing.T) {
	c := FuncCodec[int]{
		Enc: func(b *Buffer, v int) { b.WriteVarint(int64(v)) },
		Dec: func(b *Buffer) int { return int(b.ReadVarint()) },
	}
	roundtrip[int](t, c, -42)
}

func TestCodecProperties(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		b := NewBuffer(0)
		Uint32Codec{}.Encode(b, v)
		return Uint32Codec{}.Decode(b) == v && b.Remaining() == 0
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(v int64) bool {
		b := NewBuffer(0)
		Int64Codec{}.Encode(b, v)
		return Int64Codec{}.Decode(b) == v && b.Remaining() == 0
	}, nil); err != nil {
		t.Error(err)
	}
}

// sliceRoundtrip checks the slice forms of c against its per-value
// form: EncodeSlice writes exactly the bytes a loop of Encode writes,
// DecodeSlice reads the values back and stops where a loop of Decode
// would, and a buffer one byte short still panics.
func sliceRoundtrip[T comparable](t *testing.T, c Codec[T], vs []T) {
	t.Helper()
	want := NewBuffer(0)
	for _, v := range vs {
		c.Encode(want, v)
	}
	got := NewBuffer(0)
	got.WriteUint8(0xEE) // the slice lands after what is already there
	EncodeSlice(got, c, vs)
	if !bytes.Equal(got.Bytes()[1:], want.Bytes()) {
		t.Fatalf("%T: EncodeSlice wrote % x, per-value Encode % x", c, got.Bytes()[1:], want.Bytes())
	}

	got.WriteUint8(0xEE) // and stops before what follows
	got.ReadUint8()
	out := make([]T, len(vs))
	DecodeSlice(got, c, out)
	if !slices.Equal(out, vs) {
		t.Fatalf("%T: DecodeSlice read %v want %v", c, out, vs)
	}
	if got.Remaining() != 1 {
		t.Fatalf("%T: DecodeSlice left %d bytes, want the 1 that follows the slice", c, got.Remaining())
	}

	if len(want.Bytes()) == 0 {
		return
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("%T: DecodeSlice of a buffer one byte short did not panic", c)
		}
	}()
	DecodeSlice(FromBytes(want.Bytes()[:want.Len()-1]), c, out)
}

func TestSliceCodecMatchesPerValueCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, 1000} {
		u32, i64 := make([]uint32, n), make([]int64, n)
		f64, bools := make([]float64, n), make([]bool, n)
		for i := 0; i < n; i++ {
			u32[i], i64[i] = rng.Uint32(), rng.Int63()>>uint(rng.Intn(63))-5
			f64[i], bools[i] = rng.NormFloat64(), rng.Intn(2) == 1
		}
		sliceRoundtrip[uint32](t, Uint32Codec{}, u32)
		sliceRoundtrip[int64](t, Int64Codec{}, i64)
		sliceRoundtrip[float64](t, Float64Codec{}, f64)
		sliceRoundtrip[bool](t, BoolCodec{}, bools)
		sliceRoundtrip[int64](t, FuncCodec[int64]{
			Enc: func(b *Buffer, v int64) { b.WriteVarint(v) },
			Dec: func(b *Buffer) int64 { return b.ReadVarint() },
		}, i64)
	}
}
