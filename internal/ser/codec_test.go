package ser

import (
	"bytes"
	"math"
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

// diffMatchesBytes checks UpdateSlice of c against the encodings it
// stands for: a slot is marked exactly when Encode writes different
// bytes for its two values, the bits past the slots come out clear
// whatever the bitmap held, the count is the number marked, every value
// takes FixedWidth bytes, and last ends up encoding as cur does.
func diffMatchesBytes[T any](t *testing.T, c Codec[T], prev, cur []T) {
	t.Helper()
	changed := bytes.Repeat([]byte{0xFF}, (len(cur)+7)/8)
	last := slices.Clone(prev)
	n := UpdateSlice(c, changed, last, cur)
	a, b := NewBuffer(0), NewBuffer(0)
	EncodeSlice(a, c, last)
	EncodeSlice(b, c, cur)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%T: UpdateSlice left last encoding as % x, cur as % x", c, a.Bytes(), b.Bytes())
	}
	want := 0
	for k := range cur {
		a, b := NewBuffer(0), NewBuffer(0)
		c.Encode(a, prev[k])
		c.Encode(b, cur[k])
		if a.Len() != FixedWidth(c) || b.Len() != FixedWidth(c) {
			t.Fatalf("%T: values of %d and %d bytes, FixedWidth %d", c, a.Len(), b.Len(), FixedWidth(c))
		}
		diff := !bytes.Equal(a.Bytes(), b.Bytes())
		if diff {
			want++
		}
		if got := changed[k>>3]>>(k&7)&1 == 1; got != diff {
			t.Fatalf("%T: slot %d (%v -> %v) marked %v, encodings differ: %v", c, k, prev[k], cur[k], got, diff)
		}
	}
	if n != want {
		t.Fatalf("%T: DiffSlice counted %d changed slots, %d differ", c, n, want)
	}
	if len(cur)&7 != 0 && changed[len(changed)-1]>>(len(cur)&7) != 0 {
		t.Fatalf("%T: padding bits set in %08b", c, changed[len(changed)-1])
	}
}

func TestUpdateSliceMatchesEncodedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nan1, nan2 := math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0x7FF8000000000002)
	for _, n := range []int{0, 1, 7, 8, 9, 1000} {
		u32p, u32c := make([]uint32, n), make([]uint32, n)
		f64p, f64c := make([]float64, n), make([]float64, n)
		bp, bc := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			u32p[i], f64p[i], bp[i] = rng.Uint32()%4, float64(rng.Intn(4)), rng.Intn(2) == 1
			u32c[i], f64c[i], bc[i] = u32p[i], f64p[i], bp[i]
			if rng.Intn(2) == 0 {
				u32c[i], f64c[i], bc[i] = rng.Uint32()%4, float64(rng.Intn(4)), rng.Intn(2) == 1
			}
		}
		// equal as values, different as bytes; the same NaN twice
		specials := [][2]float64{{0, math.Copysign(0, -1)}, {nan1, nan2}, {nan1, nan1}, {math.Inf(1), math.Inf(1)}}
		for i, sp := range specials {
			if i < n {
				f64p[i], f64c[i] = sp[0], sp[1]
			}
		}
		diffMatchesBytes[uint32](t, Uint32Codec{}, u32p, u32c)
		diffMatchesBytes[float64](t, Float64Codec{}, f64p, f64c)
		diffMatchesBytes[bool](t, BoolCodec{}, bp, bc)
	}
	if FixedWidth[int64](Int64Codec{}) != 0 || FixedWidth[int](FuncCodec[int]{}) != 0 {
		t.Error("a varint or function codec reports a fixed width")
	}
}

func TestReadBitmap(t *testing.T) {
	m, set := FromBytes([]byte{0b1011, 0x01, 0xEE}).ReadBitmap(9)
	if !bytes.Equal(m, []byte{0b1011, 0x01}) || set != 4 {
		t.Fatalf("ReadBitmap(9) = % x, %d set", m, set)
	}
	for _, tc := range []struct {
		data []byte
		n    int
	}{{[]byte{0x01, 0x02}, 9}, {[]byte{0x80}, 7}, {[]byte{0xFF}, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReadBitmap(%d) of % x did not panic", tc.n, tc.data)
				}
			}()
			FromBytes(tc.data).ReadBitmap(tc.n)
		}()
	}
}
