// Package engine implements the channel-based BSP runtime — the system
// the paper proposes — on the shared superstep driver (internal/bsp).
// Within a superstep, after the compute phase, the registered channels
// run one or more buffer-exchange rounds (paper Fig. 4) until no
// channel on any worker asks for another round. Channels are the only
// communication mechanism; the engine knows nothing about message
// semantics. A round's buffer to a worker is a sequence of frames, one
// per channel with something to say: the channel id, then the channel's
// bytes behind a length header.
//
// A worker's compute phase is one call, Worker.ComputeRange(0,
// LocalCount()). A program that installs only the per-vertex
// Worker.Compute gets the default range: every active vertex in
// ascending local index, each made current (SetCurrent) before its
// Compute call. A program that installs ComputeRange instead — the
// dense form of Ligra's vertexMap, for programs whose every vertex works
// every superstep — owns the whole range: it decides which vertices
// compute, halts them with DeactivateLocal, and calls SetCurrent(li)
// before any channel call made on behalf of vertex li (SetMessage,
// AddAddr, Request, Respond). Channels with a slice-level entry point,
// such as ScatterCombine.Values, take the range's values in one call.
//
// The telemetry and fault-tolerance seams are the driver's (see package
// bsp). The channel engine adds a per-channel breakdown to every
// superstep sample, and its checkpoint records carry the private state
// of every StatefulChannel.
package engine

import (
	"errors"
	"fmt"

	"repro/internal/bsp"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/ser"
)

// Channel is the interface every communication channel implements — the
// Go rendering of the paper's base class (Fig. 3): initialize(),
// serialize(), deserialize(), again(). AfterCompute is an explicit hook
// the C++ system hides inside its superstep driver; channels use it to
// retire the inbox the vertices just consumed and to stage the outbox.
type Channel interface {
	// Initialize is called once on every worker before superstep 1.
	Initialize()
	// AfterCompute is called after the worker finishes its local compute
	// calls, before the first exchange round of the superstep.
	AfterCompute()
	// Serialize appends this channel's outgoing data for worker dst to
	// buf. It is called once per destination per round while the channel
	// is active, in increasing dst order (dst == own worker id is the
	// local loopback).
	Serialize(dst int, buf *ser.Buffer)
	// Deserialize consumes one frame previously written by this
	// channel on worker src.
	Deserialize(src int, buf *ser.Buffer)
	// Again is called exactly once per exchange round on every
	// registered channel (active or not) after all Deserialize calls;
	// returning true requests another round (paper: again()).
	Again() bool
}

// StatefulChannel is the optional interface a channel implements when it
// carries state across supersteps that a replay cannot reconstruct
// (registered topology, handshake tables, pending request lists).
// SaveState is called at the checkpoint cut (after AfterCompute, before
// the first exchange round); RestoreState is called after Initialize on
// a restoring worker, before the cut superstep's rounds are replayed.
// Channels whose cross-superstep state is rebuilt by replaying the cut
// superstep's incoming frames (inbox slots, aggregator results) need not
// implement it.
type StatefulChannel interface {
	Channel
	SaveState(buf *ser.Buffer)
	RestoreState(buf *ser.Buffer)
}

// Config configures a Job: the driver's run environment.
type Config = bsp.Env

// Metrics summarizes a finished run.
type Metrics = bsp.Metrics

// Worker is the per-node runtime handle. Algorithms receive one Worker
// in their setup function, register channels on it, allocate per-worker
// vertex state (slices indexed by local index), and install exactly one
// of Compute and ComputeRange.
type Worker struct {
	bsp.Core
	setup func(w *Worker)

	channels []Channel
	chActive []bool
	decoding Channel // whose Deserialize ran last, for the corrupt-frame report
	// sub is the one reusable frame view of the receive loop; NextFrame
	// re-points it at each incoming frame body, so the steady-state
	// decode path performs no allocation.
	sub ser.Buffer

	// Compute is invoked once per active local vertex per superstep
	// with the vertex's local index, which is also CurrentLocal() for
	// the call. Installed by the algorithm's setup function.
	Compute func(li int)
	// ComputeRange is the compute phase: the engine calls it once per
	// superstep with the worker's whole local range [0, LocalCount()).
	// When setup installs only Compute it is the default loop over the
	// active vertices of the range. A program that installs it instead
	// owns activity (it skips or halts vertices itself, DeactivateLocal)
	// and the current vertex (SetCurrent(li) before a per-vertex channel
	// call for li).
	ComputeRange func(lo, hi int)
}

// Register adds a channel to the worker and returns its channel id.
// All workers must register the same channels in the same order.
func (w *Worker) Register(c Channel) int {
	w.channels = append(w.channels, c)
	w.chActive = append(w.chActive, false)
	return len(w.channels) - 1
}

// Run executes a job. setup is called once per worker, concurrently,
// before superstep 1; it must register the same channel sequence on
// every worker and install w.Compute or w.ComputeRange. Run returns
// when no vertex is active on any worker, when a worker calls
// RequestStop, or when MaxSupersteps is hit (which is reported as an
// error).
func Run(cfg Config, setup func(w *Worker)) (Metrics, error) {
	return bsp.Run(cfg, "engine", func() bsp.Program { return program{&Worker{setup: setup}} })
}

// program is the channel engine's side of the driver, kept off the
// Worker API the algorithms see.
type program struct{ *Worker }

func (p program) Setup() error {
	w := p.Worker
	w.setup(w)
	switch {
	case w.Compute != nil && w.ComputeRange != nil:
		return errors.New("setup installed both Compute and ComputeRange")
	case w.Compute != nil:
		w.ComputeRange = w.computeActive
	case w.ComputeRange == nil:
		return errors.New("setup did not install Compute or ComputeRange")
	}
	return nil
}

// computeActive is the default ComputeRange: Compute on every active
// vertex of the range, in ascending local index.
func (w *Worker) computeActive(lo, hi int) {
	for li := lo; li < hi; li++ {
		if w.IsActiveLocal(li) {
			w.SetCurrent(li)
			w.Compute(li)
		}
	}
}

// Initialize initializes every channel; every worker's channels are
// initialized before any superstep begins, so the driver crosses once
// more.
func (p program) Initialize() bool {
	for _, c := range p.channels {
		c.Initialize()
	}
	return true
}

func (p program) Compute() {
	if s := p.Sample(); s != nil {
		s.Channels = make([]obs.ChannelSample, len(p.channels))
	}
	p.ComputeRange(0, p.LocalCount())
	p.SetCurrent(-1)
	for _, c := range p.channels {
		c.AfterCompute()
	}
}

// Serialize writes one frame per channel active this round — every
// channel in a superstep's first round — and drops the frames a channel
// left empty.
func (p program) Serialize(dst int, buf *ser.Buffer) {
	s, first := p.Sample(), p.Round() == 1
	for ci, c := range p.channels {
		if !first && !p.chActive[ci] {
			continue
		}
		mark := buf.Len()
		buf.WriteUvarint(uint64(ci))
		frame := buf.BeginFrame()
		c.Serialize(dst, buf)
		buf.EndFrame(frame)
		if buf.Len() == frame+4 {
			buf.Truncate(mark) // nothing written: drop the empty frame
		} else if s != nil {
			s.FramesSent++
			s.Channels[ci].BytesSent += int64(buf.Len() - (frame + 4))
			s.Channels[ci].FramesSent++
		}
	}
}

// Deserialize dispatches src's frame stream to the channels. The
// envelope layer returns errors on a malformed stream; a channel that
// panics on its frame's content is reported by the driver, naming the
// channel (Decoding).
func (p program) Deserialize(src int, in *ser.Buffer) error {
	s, sub := p.Sample(), &p.sub
	for in.Remaining() > 0 {
		ci64, err := in.NextUvarint()
		if err != nil {
			return fmt.Errorf("engine: worker %d: bad frame stream from worker %d: %w", p.WorkerID(), src, err)
		}
		ci := int(ci64)
		if ci < 0 || ci >= len(p.channels) {
			return fmt.Errorf("engine: worker %d: bad channel id %d from worker %d", p.WorkerID(), ci, src)
		}
		if err := in.NextFrame(sub); err != nil {
			return fmt.Errorf("engine: worker %d: bad frame from worker %d: %w", p.WorkerID(), src, err)
		}
		if s != nil {
			s.FramesRecv++
			s.Channels[ci].BytesRecv += int64(sub.Remaining())
			s.Channels[ci].FramesRecv++
		}
		p.decoding = p.channels[ci]
		p.decoding.Deserialize(src, sub)
	}
	return nil
}

func (p program) Decoding() any { return p.decoding }

// Again asks every channel, active or not, and records which ones want
// the next round.
func (p program) Again() bool {
	again := false
	for ci, c := range p.channels {
		p.chActive[ci] = c.Again()
		again = again || p.chActive[ci]
	}
	return again
}

// SaveState records every StatefulChannel's private state, indexed by
// channel id.
func (p program) SaveState(rec *ckpt.Record) {
	rec.Channels = make([][]byte, len(p.channels))
	buf := ser.NewBuffer(4096)
	for ci, c := range p.channels {
		if sc, ok := c.(StatefulChannel); ok {
			buf.Reset()
			sc.SaveState(buf)
			rec.Channels[ci] = append([]byte(nil), buf.Bytes()...)
		}
	}
}

func (p program) RestoreState(rec *ckpt.Record) error {
	if len(rec.Channels) != len(p.channels) || len(rec.Engine) != 0 {
		return fmt.Errorf("record does not match job shape (%d channels, %d engine bytes)", len(rec.Channels), len(rec.Engine))
	}
	for ci, c := range p.channels {
		if sc, ok := c.(StatefulChannel); ok {
			sc.RestoreState(ser.FromBytes(rec.Channels[ci]))
		} else if len(rec.Channels[ci]) != 0 {
			return fmt.Errorf("record carries state for stateless channel %d", ci)
		}
	}
	return nil
}
