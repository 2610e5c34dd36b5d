package workerproc

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/ser"
)

// The control channel between a pool and one of its graphworkers is a
// pair of pipes (the worker's stdin and stdout) carrying length-prefixed
// frames: a job descriptor down, one ack per descriptor back up. EOF on
// the descriptor side is the worker's signal to exit, so workers never
// outlive a coordinator that closed the pool — or died.

// maxControlFrame bounds a declared control-frame length: a descriptor
// is a few hundred bytes, so anything larger is corrupt and must not
// drive an allocation.
const maxControlFrame = 1 << 16

// maxWorkers is the largest job-wide worker count the socket fabric can
// address (worker ids travel as uint16 in every netcomm header).
const maxWorkers = 1 << 16

func writeFrame(w io.Writer, payload []byte) error {
	buf := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	_, err := w.Write(append(buf, payload...))
	return err
}

// readFrame returns io.EOF only for a clean end of stream between
// frames; a stream that ends inside one is io.ErrUnexpectedEOF.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxControlFrame {
		return nil, fmt.Errorf("workerproc: control frame claims %d bytes", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// descriptor is one process's share of one job attempt: everything a
// warm graphworker needs to join the attempt's hub and run its hosted
// worker range.
type descriptor struct {
	// seq pairs the ack with its dispatch.
	seq uint64

	network, addr string // the attempt's hub

	// snapshot names the view export; the file is written once, so the
	// path is also the key of the worker's view cache.
	snapshot, placement string
	lo, hi, m           int

	algorithm     string
	engine        algorithms.Engine
	variant       string
	params        algorithms.Params
	maxSupersteps int
	trace, flows  bool

	ckptDir, ckptJob string
	ckptInterval     int
	restore          int
	fault            *FaultSpec
}

func (d *descriptor) encode() []byte {
	b := ser.NewBuffer(256)
	b.WriteUvarint(d.seq)
	b.WriteString(d.network)
	b.WriteString(d.addr)
	b.WriteString(d.snapshot)
	b.WriteString(d.placement)
	b.WriteUvarint(uint64(d.lo))
	b.WriteUvarint(uint64(d.hi))
	b.WriteUvarint(uint64(d.m))
	b.WriteString(d.algorithm)
	b.WriteString(string(d.engine))
	b.WriteString(d.variant)
	b.WriteVarint(int64(d.params.Iterations)) // signed: <= 0 selects the default, as in-process
	b.WriteUvarint(uint64(d.params.Source))
	b.WriteVarint(int64(d.maxSupersteps))
	b.WriteBool(d.trace)
	b.WriteBool(d.flows)
	b.WriteString(d.ckptDir)
	b.WriteString(d.ckptJob)
	b.WriteUvarint(uint64(d.ckptInterval))
	b.WriteUvarint(uint64(d.restore))
	fault := ""
	if d.fault != nil {
		fault = d.fault.String()
	}
	b.WriteString(fault)
	return b.Bytes()
}

// decodeDescriptor parses and vets a descriptor. The bytes crossed a
// process boundary: every length is bounded by the bytes that remain
// (ser reads alias the payload, they never allocate from a declared
// length), every enum is checked against what this binary implements,
// and anything malformed is an error, never a panic.
func decodeDescriptor(p []byte) (d *descriptor, err error) {
	b := ser.FromBytes(p)
	d = &descriptor{}
	var engine, fault string
	var source uint64
	if perr := ser.Decode(func() {
		// numbers are bounded before they narrow to int, so a hostile
		// 2^63 cannot wrap negative and slip past a lower-bound check
		signed := func(what string) int {
			v := b.ReadVarint()
			if v != int64(int32(v)) {
				panic(fmt.Sprintf("%s %d out of range", what, v))
			}
			return int(v)
		}
		d.seq = b.ReadUvarint()
		d.network, d.addr = b.ReadString(), b.ReadString()
		d.snapshot, d.placement = b.ReadString(), b.ReadString()
		d.lo, d.hi, d.m = b.ReadIndex(math.MaxInt32), b.ReadIndex(math.MaxInt32), b.ReadIndex(math.MaxInt32)
		d.algorithm = b.ReadString()
		engine = b.ReadString()
		d.variant = b.ReadString()
		d.params.Iterations = signed("iterations")
		source = b.ReadUvarint()
		d.maxSupersteps = signed("superstep cap")
		d.trace, d.flows = b.ReadBool(), b.ReadBool()
		d.ckptDir, d.ckptJob = b.ReadString(), b.ReadString()
		d.ckptInterval, d.restore = b.ReadIndex(math.MaxInt32), b.ReadIndex(math.MaxInt32)
		fault = b.ReadString()
	}); perr != nil {
		return nil, fmt.Errorf("workerproc: corrupt job descriptor: %v", perr)
	}
	if b.Remaining() != 0 {
		return nil, fmt.Errorf("workerproc: job descriptor has %d trailing bytes", b.Remaining())
	}

	if source > uint64(^graph.VertexID(0)) {
		return nil, fmt.Errorf("workerproc: source vertex %d out of range", source)
	}
	d.params.Source = graph.VertexID(source)
	d.engine = algorithms.Engine(engine)
	if fault != "" {
		if d.fault, err = ParseFault(fault); err != nil {
			return nil, err
		}
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// validate checks a descriptor against what this binary implements. The
// coordinator runs it before dispatching and the worker after decoding,
// so a job the workers would refuse fails before any of them sees it.
func (d *descriptor) validate() error {
	if d.network != "unix" && d.network != "tcp" {
		return fmt.Errorf("workerproc: unknown network %q", d.network)
	}
	if d.m < 1 || d.m > maxWorkers || d.lo < 0 || d.lo > d.hi || d.hi >= d.m {
		return fmt.Errorf("workerproc: bad worker range %d-%d of %d", d.lo, d.hi, d.m)
	}
	if d.ckptInterval < 0 || d.restore < 0 {
		return fmt.Errorf("workerproc: negative checkpoint interval %d or restore superstep %d", d.ckptInterval, d.restore)
	}
	spec, ok := algorithms.Lookup(d.algorithm)
	if !ok {
		return fmt.Errorf("workerproc: unknown algorithm %q", d.algorithm)
	}
	// on the wire the engine is always spelled out ("" is ParseEngine's
	// shorthand for the default), so a round trip reproduces the bytes
	if eng, err := algorithms.ParseEngine(string(d.engine)); err != nil || eng != d.engine {
		return fmt.Errorf("workerproc: unknown engine %q", d.engine)
	}
	return spec.CheckVariant(d.engine, d.variant)
}

// ack is a worker's answer to one descriptor, sent once it is ready for
// the next.
type ack struct {
	seq uint64
	// cached reports whether the job's view was already resident; on a
	// miss, load is what reading the export and building the partition
	// and fragments took.
	cached bool
	load   time.Duration
	// err is why no result blob reached the hub (the hub could not be
	// dialed, the blob could not be shipped); empty once one did — a run
	// or view-load error then travels inside that blob instead.
	err string
}

func (a ack) encode() []byte {
	b := ser.NewBuffer(32)
	b.WriteUvarint(a.seq)
	b.WriteBool(a.cached)
	b.WriteVarint(int64(a.load))
	b.WriteString(a.err)
	return b.Bytes()
}

func decodeAck(p []byte) (a ack, err error) {
	if perr := ser.Decode(func() {
		b := ser.FromBytes(p)
		a = ack{seq: b.ReadUvarint(), cached: b.ReadBool(),
			load: time.Duration(b.ReadVarint()), err: b.ReadString()}
	}); perr != nil {
		return ack{}, fmt.Errorf("workerproc: corrupt worker ack: %v", perr)
	}
	return a, nil
}
