package ckpt

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ser"
)

// recordMagic versions the record encoding itself (the Dir store's file
// header versions the container).
const recordMagic = uint32(0x32504B43) // "CKP2"

// Record is one worker's checkpoint: its state and its messages in
// flight at the cut of one superstep, which sits after round 1's
// serialize and before that round's flush. Superstep/Halt/Active plus
// the Algo blob capture the vertex state there; Channels carries each
// registered channel's private state in registration order (empty blob
// for stateless channels); Engine carries engine-private residue (the
// pregel engine's per-vertex request stamps; empty for the channel
// engine); Out holds the M buffers round 1 just serialized, indexed by
// destination worker (loopback included) — every message compute
// staged, in the engine's own wire format — which a restore writes back
// into the fabric's outgoing buffers before it flushes the round.
type Record struct {
	Superstep int
	Halt      bool
	Active    []bool
	Algo      []byte
	Engine    []byte
	Channels  [][]byte
	Out       [][]byte
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
	buf.WriteUvarint(uint64(len(r.Out)))
	for _, o := range r.Out {
		buf.WriteBytes(o)
	}
}

// Decode parses a record. The input crossed a process (and disk)
// boundary, so it is untrusted: every claimed length is validated
// against the bytes actually present before any allocation, and decode
// panics surface as errors — hostile headers cannot OOM or crash the
// caller.
func Decode(data []byte) (rec *Record, err error) {
	if perr := ser.Decode(func() { rec, err = decode(data) }); perr != nil {
		return nil, fmt.Errorf("ckpt: corrupt record: %v", perr)
	}
	return rec, err
}

func decode(data []byte) (*Record, error) {
	b := ser.FromBytes(data)
	if len(data) < 4 || b.ReadUint32() != recordMagic {
		// an older format (CKP1 logged every round's incoming frames) or
		// no record at all
		return nil, fmt.Errorf("ckpt: record magic %q, this build reads \"CKP2\"", data[:min(4, len(data))])
	}
	rec := &Record{
		Superstep: b.ReadIndex(math.MaxInt),
		Halt:      b.ReadBool(),
	}
	if rec.Superstep == 0 {
		return nil, fmt.Errorf("ckpt: bad superstep %d", rec.Superstep)
	}
	// eight vertices share a byte of the bitmap, so its count is bounded
	// here rather than by ReadCount
	n := b.ReadUvarint()
	if n > 8*uint64(b.Remaining()) {
		return nil, fmt.Errorf("ckpt: active bitmap claims %d vertices, %d bytes remain", n, b.Remaining())
	}
	rec.Active = make([]bool, n)
	for i := 0; i < len(rec.Active); i += 8 {
		bits := b.ReadUint8()
		for j := 0; j < 8 && i+j < len(rec.Active); j++ {
			rec.Active[i+j] = bits&(1<<j) != 0
		}
	}
	rec.Algo = checkedBytes(b)
	rec.Engine = checkedBytes(b)
	rec.Channels = make([][]byte, b.ReadCount(math.MaxInt))
	for i := range rec.Channels {
		rec.Channels[i] = checkedBytes(b)
	}
	rec.Out = make([][]byte, b.ReadCount(math.MaxInt))
	for i := range rec.Out {
		rec.Out[i] = checkedBytes(b)
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
	if n := buf.ReadUvarint(); n != uint64(len(s)) {
		panic(fmt.Sprintf("ckpt: state slice length %d, checkpoint has %d", len(s), n))
	}
	ser.DecodeSlice(buf, c, s)
}

// AppendSlice decodes a sequence written by SaveSlice and appends it to
// s, for state whose length the job's shape does not fix (registered
// edges, pending lists). The length is a ReadCount — every value of c
// must take at least one byte — so a corrupt length cannot force a
// large allocation.
func AppendSlice[T any](buf *ser.Buffer, c ser.Codec[T], s []T) []T {
	n, k := buf.ReadCount(math.MaxInt), len(s)
	s = slices.Grow(s, n)[:k+n]
	ser.DecodeSlice(buf, c, s[k:])
	return s
}
