// Package workerproc runs distributed jobs on warm graphworker
// processes: the pool that keeps the processes alive across jobs, the
// per-attempt coordinator that dispatches a job to a party of them and
// assembles their partial results back into one algorithms.Result, and
// the worker loop itself.
//
// A graphworker process (Main) lives across jobs. Each job reaches it as
// one job descriptor on its control channel; it takes the job's graph
// view from its cache — loading it from the binary snapshot the
// coordinator exported on first sight, reconstructing the partition from
// the owner vector embedded in the snapshot (so every process agrees on
// vertex placement bit for bit) and building its pre-resolved fragments
// — joins the attempt's socket fabric, and runs the exact registry code
// path the in-process engines run. Its result — the assembled global
// arrays with only its hosted workers' vertices filled — is encoded as a
// compact partial (hosted vertices only, in local-index order) and
// shipped to the hub; the coordinator merges partials by ownership.
//
// pool.go holds Pool, its parties and processes; coordinator.go JobSpec,
// Run and one attempt; descriptor.go the control-channel wire format;
// worker.go the worker loop and view cache; proto.go the partial-result
// format; fault.go deterministic fault injection.
package workerproc

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/algorithms"
	"repro/internal/barrier"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ser"
)

// result kinds on the wire, mirroring algorithms.Result.Kind.
const (
	kindLabels = 0
	kindRanks  = 1
	kindDists  = 2
	kindMSF    = 3
)

// encodePartial serializes one process's share of a run: the hosted
// worker range, the run error (empty string = success), the superstep
// count its workers reached, and — on success — the hosted workers'
// slices of the result arrays followed by their share of the flow
// matrix. Error partials carry no values and no flows — an aborted
// attempt contributes nothing, so recovery never double-counts. The
// superstep samples are not here: they reached the hub ahead of the
// blob, on the same stream (Client.SendSamples).
func encodePartial(buf *ser.Buffer, part *partition.Partition, lo, hi int,
	res *algorithms.Result, flows *obs.FlowMatrix, runErr error) {
	buf.WriteUvarint(uint64(lo))
	buf.WriteUvarint(uint64(hi))
	if runErr != nil {
		buf.WriteString(runErr.Error())
		return
	}
	buf.WriteString("")
	buf.WriteUvarint(uint64(res.Metrics.Supersteps))
	switch res.Kind() {
	case "labels":
		buf.WriteUint8(kindLabels)
		forHosted(part, lo, hi, func(v graph.VertexID) { buf.WriteUvarint(uint64(res.Labels[v])) })
	case "ranks":
		buf.WriteUint8(kindRanks)
		forHosted(part, lo, hi, func(v graph.VertexID) { buf.WriteFloat64(res.Ranks[v]) })
	case "dists":
		buf.WriteUint8(kindDists)
		forHosted(part, lo, hi, func(v graph.VertexID) { buf.WriteVarint(res.Dists[v]) })
	case "msf":
		buf.WriteUint8(kindMSF)
		forHosted(part, lo, hi, func(v graph.VertexID) { buf.WriteUvarint(uint64(res.MSF.Comp[v])) })
		buf.WriteVarint(res.MSF.Weight)
		buf.WriteUvarint(uint64(len(res.MSF.Edges)))
		for _, e := range res.MSF.Edges {
			buf.WriteUvarint(uint64(e.Src))
			buf.WriteUvarint(uint64(e.Dst))
			buf.WriteVarint(int64(e.Weight))
		}
	}
	encodeFlows(buf, flows)
}

// encodeFlows appends the flow-matrix section: data plane, worker
// count, non-empty cells, and the relay stats. A nil matrix encodes as
// an empty section so partials without flow accounting stay decodable.
func encodeFlows(buf *ser.Buffer, m *obs.FlowMatrix) {
	if m == nil {
		m = &obs.FlowMatrix{}
	}
	buf.WriteString(m.Plane)
	buf.WriteUvarint(uint64(m.Workers))
	buf.WriteUvarint(uint64(len(m.Flows)))
	for _, f := range m.Flows {
		buf.WriteUvarint(uint64(f.Src))
		buf.WriteUvarint(uint64(f.Dst))
		buf.WriteVarint(f.Bytes)
		buf.WriteVarint(f.Frames)
		buf.WriteVarint(f.Rounds)
		buf.WriteVarint(f.MaxFrame)
	}
	buf.WriteUvarint(uint64(len(m.Relays)))
	for _, r := range m.Relays {
		buf.WriteUvarint(uint64(r.Lo))
		buf.WriteUvarint(uint64(r.Hi))
		buf.WriteVarint(r.Bytes)
		buf.WriteVarint(r.Frames)
		buf.WriteVarint(r.ResidencyNS)
	}
}

// decodeFlows reads the flow section written by encodeFlows and merges
// it into acc (acc nil: the section is consumed and discarded).
func decodeFlows(b *ser.Buffer, acc *obs.FlowAccum) {
	m := &obs.FlowMatrix{Plane: b.ReadString(), Workers: int(b.ReadUvarint())}
	nf := count(b)
	for i := 0; i < nf; i++ {
		m.Flows = append(m.Flows, obs.FlowStat{
			Src: int(b.ReadUvarint()), Dst: int(b.ReadUvarint()),
			Bytes: b.ReadVarint(), Frames: b.ReadVarint(),
			Rounds: b.ReadVarint(), MaxFrame: b.ReadVarint(),
		})
	}
	nr := count(b)
	for i := 0; i < nr; i++ {
		m.Relays = append(m.Relays, obs.RelayStat{
			Lo: int(b.ReadUvarint()), Hi: int(b.ReadUvarint()),
			Bytes: b.ReadVarint(), Frames: b.ReadVarint(), ResidencyNS: b.ReadVarint(),
		})
	}
	if acc != nil {
		acc.Merge(m)
	}
}

// encodeSamples renders superstep samples as the payload of one
// Client.SendSamples batch: a sample count and each sample's fixed
// fields plus its per-channel breakdown.
func encodeSamples(buf *ser.Buffer, samples []obs.SuperstepSample) {
	buf.WriteUvarint(uint64(len(samples)))
	for _, s := range samples {
		buf.WriteUvarint(uint64(s.Worker))
		buf.WriteUvarint(uint64(s.Superstep))
		buf.WriteVarint(s.ActiveVertices)
		buf.WriteUvarint(uint64(s.Rounds))
		buf.WriteVarint(s.ComputeNS)
		buf.WriteVarint(s.BarrierWaitNS)
		buf.WriteVarint(s.BytesSent)
		buf.WriteVarint(s.FramesSent)
		buf.WriteVarint(s.BytesRecv)
		buf.WriteVarint(s.FramesRecv)
		buf.WriteUvarint(uint64(len(s.Channels)))
		for _, c := range s.Channels {
			buf.WriteVarint(c.BytesSent)
			buf.WriteVarint(c.FramesSent)
			buf.WriteVarint(c.BytesRecv)
			buf.WriteVarint(c.FramesRecv)
		}
	}
}

// decodeSamples reads a batch written by encodeSamples and feeds every
// sample to tr.
func decodeSamples(b *ser.Buffer, tr *obs.Trace) {
	n := count(b)
	for i := 0; i < n; i++ {
		var s obs.SuperstepSample
		s.Worker = int(b.ReadUvarint())
		s.Superstep = int(b.ReadUvarint())
		s.ActiveVertices = b.ReadVarint()
		s.Rounds = int(b.ReadUvarint())
		s.ComputeNS = b.ReadVarint()
		s.BarrierWaitNS = b.ReadVarint()
		s.BytesSent = b.ReadVarint()
		s.FramesSent = b.ReadVarint()
		s.BytesRecv = b.ReadVarint()
		s.FramesRecv = b.ReadVarint()
		if nc := count(b); nc > 0 {
			s.Channels = make([]obs.ChannelSample, nc)
			for ci := range s.Channels {
				c := &s.Channels[ci]
				c.BytesSent = b.ReadVarint()
				c.FramesSent = b.ReadVarint()
				c.BytesRecv = b.ReadVarint()
				c.FramesRecv = b.ReadVarint()
			}
		}
		tr.ObserveSuperstep(s)
	}
}

// count reads an item count, vetted against the bytes left (every item
// takes at least one): a hostile count can neither wrap negative nor
// size an allocation past the blob. It panics like the ser reads it
// sits among; the decoders recover.
func count(b *ser.Buffer) int {
	n := b.ReadUvarint()
	if n > uint64(b.Remaining()) {
		panic(fmt.Sprintf("count %d exceeds the %d bytes left", n, b.Remaining()))
	}
	return int(n)
}

// forHosted visits the hosted workers' vertices in (worker, local
// index) order — the canonical order both encode and decode share.
func forHosted(part *partition.Partition, lo, hi int, f func(v graph.VertexID)) {
	for w := lo; w <= hi; w++ {
		n := part.LocalCount(w)
		for li := 0; li < n; li++ {
			f(part.GlobalID(w, li))
		}
	}
}

// partial is one decoded process report.
type partial struct {
	lo, hi     int
	err        error
	supersteps int
	kind       uint8
	decode     *ser.Buffer // positioned at the value stream
}

// decodePartial parses one result blob.
func decodePartial(blob []byte) (p partial, err error) {
	defer func() {
		// the blob crossed a process boundary: a malformed value stream
		// surfaces as an error, not a panic
		if r := recover(); r != nil {
			err = fmt.Errorf("workerproc: corrupt partial result: %v", r)
		}
	}()
	b := ser.FromBytes(blob)
	p = partial{lo: int(b.ReadUvarint()), hi: int(b.ReadUvarint())}
	if p.lo < 0 || p.hi < p.lo {
		return partial{}, fmt.Errorf("workerproc: bad worker range %d-%d in result blob", p.lo, p.hi)
	}
	if msg := b.ReadString(); msg != "" {
		p.err = reportedError(msg)
		return p, nil
	}
	p.supersteps = int(b.ReadUvarint())
	p.kind = b.ReadUint8()
	if p.kind > kindMSF {
		return partial{}, fmt.Errorf("workerproc: bad result kind %d from workers %d-%d", p.kind, p.lo, p.hi)
	}
	p.decode = b
	return p, nil
}

// reportedError rehydrates an error string shipped from a worker
// process. Abort echoes (a peer failed; the socket fabric tore this
// worker down) map back to the barrier sentinel so JoinErrors filters
// them and only root causes surface.
func reportedError(msg string) error {
	if msg == barrier.ErrAborted.Error() ||
		strings.Contains(msg, "netcomm: job aborted") ||
		strings.Contains(msg, "connection to coordinator lost") {
		return barrier.ErrAborted
	}
	if msg == barrier.ErrCancelled.Error() {
		return barrier.ErrCancelled
	}
	return errors.New(msg)
}

// mergePartials assembles the per-process partial results into one
// global Result under part. It returns the merged result, the minimum
// superstep any worker reached, and the joined worker errors (nil when
// every process succeeded). Blobs must cover every worker exactly once;
// a missing range is reported as an error (its workers died before
// reporting — the transport error carries the detail). When flows is
// non-nil, each blob's flow section is merged into it, reassembling the
// job-wide flow matrix from the per-process shares.
func mergePartials(part *partition.Partition, blobs []partial, flows *obs.FlowAccum) (*algorithms.Result, int, error) {
	m := part.NumWorkers()
	covered := make([]bool, m)
	var errs []error
	minSteps := -1
	kind := uint8(255)
	for _, p := range blobs {
		if p.hi >= m {
			return nil, 0, fmt.Errorf("workerproc: result blob for workers %d-%d of %d", p.lo, p.hi, m)
		}
		for w := p.lo; w <= p.hi; w++ {
			covered[w] = true
		}
		if p.err != nil {
			errs = append(errs, p.err)
			continue
		}
		if minSteps < 0 || p.supersteps < minSteps {
			minSteps = p.supersteps
		}
		if kind == 255 {
			kind = p.kind
		} else if kind != p.kind {
			return nil, 0, fmt.Errorf("workerproc: result kind mismatch across workers (%d vs %d)", kind, p.kind)
		}
	}
	for w, ok := range covered {
		if !ok {
			errs = append(errs, fmt.Errorf("workerproc: worker %d reported no result", w))
		}
	}
	// len(errs) > 0 with a nil join means every error was an abort echo
	// JoinErrors filtered out — but those workers still contributed no
	// values, so merging anyway would return a silently truncated result.
	if err := barrier.JoinErrors(errs); err != nil || len(errs) > 0 || kind == 255 {
		if err == nil {
			err = barrier.ErrAborted
		}
		return nil, 0, err
	}

	n := part.NumVertices()
	res := &algorithms.Result{}
	switch kind {
	case kindLabels:
		res.Labels = make([]graph.VertexID, n)
	case kindRanks:
		res.Ranks = make([]float64, n)
	case kindDists:
		res.Dists = make([]int64, n)
	case kindMSF:
		res.MSF = &algorithms.MSFResult{Comp: make([]graph.VertexID, n)}
	}
	for _, p := range blobs {
		if p.err != nil {
			continue
		}
		b := p.decode
		werr := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("workerproc: corrupt partial result from workers %d-%d: %v", p.lo, p.hi, r)
				}
			}()
			forHosted(part, p.lo, p.hi, func(v graph.VertexID) {
				switch kind {
				case kindLabels:
					res.Labels[v] = graph.VertexID(b.ReadUvarint())
				case kindRanks:
					res.Ranks[v] = b.ReadFloat64()
				case kindDists:
					res.Dists[v] = b.ReadVarint()
				case kindMSF:
					res.MSF.Comp[v] = graph.VertexID(b.ReadUvarint())
				}
			})
			if kind == kindMSF {
				res.MSF.Weight += b.ReadVarint()
				ne := count(b)
				for i := 0; i < ne; i++ {
					e := graph.Edge{
						Src: graph.VertexID(b.ReadUvarint()),
						Dst: graph.VertexID(b.ReadUvarint()),
					}
					e.Weight = int32(b.ReadVarint())
					res.MSF.Edges = append(res.MSF.Edges, e)
				}
			}
			decodeFlows(b, flows)
			if b.Remaining() != 0 {
				return fmt.Errorf("workerproc: %d trailing bytes in the result from workers %d-%d", b.Remaining(), p.lo, p.hi)
			}
			return nil
		}()
		if werr != nil {
			return nil, 0, werr
		}
	}
	if minSteps < 0 {
		minSteps = 0
	}
	return res, minSteps, nil
}
