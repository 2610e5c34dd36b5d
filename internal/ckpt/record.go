package ckpt

import (
	"fmt"

	"repro/internal/ser"
)

// recordMagic versions the record encoding itself (the Dir store's file
// header versions the container).
const recordMagic = uint32(0x31504B43) // "CKP1"

// Record is one worker's checkpoint: the full replayable cut of one
// superstep. Superstep/Halt/Active plus the Algo blob capture the state
// at the cut point (post-compute, pre-exchange); Channels carries each
// registered channel's private state in registration order (empty blob
// for stateless channels); Engine carries engine-private residue (the
// pregel engine's per-vertex request stamps; empty for the channel
// engine); Frames holds the raw incoming exchange bytes of the
// superstep, Rounds*M entries in round-major, source-worker-minor order
// (loopback included), which a restore replays through the normal
// deserialize path.
type Record struct {
	Superstep int
	Halt      bool
	Active    []bool
	Algo      []byte
	Engine    []byte
	Channels  [][]byte
	Rounds    int
	Frames    [][]byte
}

// Encode appends the record to buf.
func (r *Record) Encode(buf *ser.Buffer) {
	buf.WriteUint32(recordMagic)
	buf.WriteUvarint(uint64(r.Superstep))
	buf.WriteBool(r.Halt)
	buf.WriteUvarint(uint64(len(r.Active)))
	var bits, nbits uint8
	for _, a := range r.Active {
		if a {
			bits |= 1 << nbits
		}
		if nbits++; nbits == 8 {
			buf.WriteUint8(bits)
			bits, nbits = 0, 0
		}
	}
	if nbits > 0 {
		buf.WriteUint8(bits)
	}
	buf.WriteBytes(r.Algo)
	buf.WriteBytes(r.Engine)
	buf.WriteUvarint(uint64(len(r.Channels)))
	for _, c := range r.Channels {
		buf.WriteBytes(c)
	}
	buf.WriteUvarint(uint64(r.Rounds))
	buf.WriteUvarint(uint64(len(r.Frames)))
	for _, f := range r.Frames {
		buf.WriteBytes(f)
	}
}

// Decode parses a record. The input crossed a process (and disk)
// boundary, so it is untrusted: every claimed length is validated
// against the bytes actually present before any allocation, and decode
// panics surface as errors — hostile headers cannot OOM or crash the
// caller.
func Decode(data []byte) (rec *Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ckpt: corrupt record: %v", r)
		}
	}()
	b := ser.FromBytes(data)
	if b.Remaining() < 4 || b.ReadUint32() != recordMagic {
		return nil, fmt.Errorf("ckpt: bad record magic")
	}
	rec = &Record{
		Superstep: int(b.ReadUvarint()),
		Halt:      b.ReadBool(),
	}
	if rec.Superstep <= 0 {
		return nil, fmt.Errorf("ckpt: bad superstep %d", rec.Superstep)
	}
	n := int(b.ReadUvarint())
	nbytes := (n + 7) / 8
	if n < 0 || nbytes > b.Remaining() {
		return nil, fmt.Errorf("ckpt: active bitmap claims %d vertices, %d bytes remain", n, b.Remaining())
	}
	rec.Active = make([]bool, n)
	for i := 0; i < n; i += 8 {
		bits := b.ReadUint8()
		for j := 0; j < 8 && i+j < n; j++ {
			rec.Active[i+j] = bits&(1<<j) != 0
		}
	}
	rec.Algo = checkedBytes(b)
	rec.Engine = checkedBytes(b)
	nc := int(b.ReadUvarint())
	if nc < 0 || nc > b.Remaining() {
		return nil, fmt.Errorf("ckpt: %d channel blobs claimed, %d bytes remain", nc, b.Remaining())
	}
	rec.Channels = make([][]byte, nc)
	for i := range rec.Channels {
		rec.Channels[i] = checkedBytes(b)
	}
	rec.Rounds = int(b.ReadUvarint())
	nf := int(b.ReadUvarint())
	if nf < 0 || nf > b.Remaining() {
		return nil, fmt.Errorf("ckpt: %d frames claimed, %d bytes remain", nf, b.Remaining())
	}
	if rec.Rounds < 0 || (nf > 0 && (rec.Rounds == 0 || nf%rec.Rounds != 0)) {
		return nil, fmt.Errorf("ckpt: %d frames do not cover %d rounds", nf, rec.Rounds)
	}
	rec.Frames = make([][]byte, nf)
	for i := range rec.Frames {
		rec.Frames[i] = checkedBytes(b)
	}
	if b.Remaining() != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after record", b.Remaining())
	}
	return rec, nil
}

// checkedBytes reads a length-prefixed blob, copying it out of the
// input (records outlive the file buffer they were decoded from). The
// length is bounded by the bytes present, so a hostile prefix cannot
// force a large allocation; ReadBytes itself panics (caught by Decode)
// on a length past the end of input.
func checkedBytes(b *ser.Buffer) []byte {
	return append([]byte(nil), b.ReadBytes()...)
}

// SaveSlice appends s as a length-prefixed sequence encoded with c —
// the helper algorithm Save closures build their state blobs from.
func SaveSlice[T any](buf *ser.Buffer, c ser.Codec[T], s []T) {
	buf.WriteUvarint(uint64(len(s)))
	ser.EncodeSlice(buf, c, s)
}

// LoadSlice decodes a sequence written by SaveSlice into s, which must
// have exactly the encoded length — algorithm state slices are sized by
// the partition, so a mismatch means the record belongs to a different
// job shape. Restore paths run under a recover, so the panic surfaces
// as a worker error, not a crash.
func LoadSlice[T any](buf *ser.Buffer, c ser.Codec[T], s []T) {
	n := int(buf.ReadUvarint())
	if n != len(s) {
		panic(fmt.Sprintf("ckpt: state slice length %d, checkpoint has %d", len(s), n))
	}
	ser.DecodeSlice(buf, c, s)
}
