package obs

import "sync"

// SuperstepSample is one worker's record of one superstep: where the
// time went (compute vs waiting at barriers — the straggler signal),
// what crossed the fabric, and how much of the graph was still active.
// The engines produce exactly one sample per (worker, superstep) that
// completed its termination reduce; a superstep cut short by a failure
// or cancellation produces none.
type SuperstepSample struct {
	Worker    int `json:"worker"`
	Superstep int `json:"superstep"`
	// ActiveVertices is the worker's active count entering the superstep.
	ActiveVertices int64 `json:"active_vertices"`
	// Rounds is the number of exchange rounds the superstep ran (the
	// baseline engine's fixed 1 or 2; the channel engine's demand-driven
	// count).
	Rounds int `json:"rounds"`
	// ComputeNS covers the per-vertex compute calls plus the channels'
	// AfterCompute hooks; BarrierWaitNS accumulates time blocked in the
	// superstep's barrier crossings and reduces (on the socket fabric it
	// includes the wire round trips).
	ComputeNS     int64 `json:"compute_ns"`
	BarrierWaitNS int64 `json:"barrier_wait_ns"`
	// SendStallNS accumulates the wall time of the worker's Flush calls:
	// publishing the round (in-process: accounting only; socket: the
	// frames' one gathered write to the hub).
	SendStallNS int64 `json:"send_stall_ns"`
	// Bytes/frames counted at the engine's serialize and deserialize
	// points, so they are identical whichever fabric carried them. The
	// totals include the frame envelope (channel id + length header);
	// per-channel counts in Channels are payload only.
	BytesSent  int64 `json:"bytes_sent"`
	FramesSent int64 `json:"frames_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
	FramesRecv int64 `json:"frames_recv"`
	// Channels breaks the traffic down per registered channel id
	// (channel engine only; the baseline engine has a single monolithic
	// stream and leaves this nil).
	Channels []ChannelSample `json:"channels,omitempty"`
}

// ChannelSample is one channel's share of a superstep's traffic
// (payload bytes, excluding the frame envelope).
type ChannelSample struct {
	BytesSent  int64 `json:"bytes_sent"`
	FramesSent int64 `json:"frames_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
	FramesRecv int64 `json:"frames_recv"`
}

// Observer receives one sample per worker per completed superstep. The
// engines call it from their worker goroutines, so implementations must
// be safe for concurrent use.
type Observer interface {
	ObserveSuperstep(SuperstepSample)
}

// DefaultTraceSteps bounds how many supersteps a Trace retains; samples
// beyond the cap are counted, not stored, so a runaway job cannot turn
// its trace into a memory leak while the manager retains it.
const DefaultTraceSteps = 1024

// Trace collects samples into a per-job superstep timeline. One Trace
// serves a whole job: in-process all workers feed it directly, and on
// the distributed path the coordinator replays each worker process's
// shipped samples into it, so both fabrics produce the same shape.
type Trace struct {
	mu        sync.Mutex
	workers   int
	maxSteps  int
	steps     []traceStep
	truncated int64

	// onStep fires exactly once per superstep, when the last worker's
	// sample for it lands (re-shipped samples after a recovery overwrite
	// their slots without re-firing). onTruncate fires once, on the
	// first truncated sample. Both run outside the trace lock.
	onStep     func(StepEvent)
	onTruncate func(int64)
	warned     bool
}

type traceStep struct {
	samples []SuperstepSample
	seen    []bool
	count   int  // workers seen so far
	fired   bool // completion hook already ran
}

// NewTrace creates a trace for a job with the given worker count,
// retaining up to DefaultTraceSteps supersteps.
func NewTrace(workers int) *Trace {
	return &Trace{workers: workers, maxSteps: DefaultTraceSteps}
}

// Workers returns the job's worker count.
func (t *Trace) Workers() int { return t.workers }

// OnStepComplete installs a hook fired exactly once per superstep, when
// the last worker's sample for it arrives. Overwrites of already-seen
// slots (a recovered attempt re-shipping its replayed steps) do not
// re-fire, so consumers see each step once however many attempts the
// job took. Set before the trace starts collecting.
func (t *Trace) OnStepComplete(f func(StepEvent)) { t.onStep = f }

// OnTruncate installs a hook fired once, on the trace's first truncated
// sample, with the truncated count at that moment. Set before the trace
// starts collecting.
func (t *Trace) OnTruncate(f func(int64)) { t.onTruncate = f }

// ObserveSuperstep records one sample. Samples beyond the superstep cap
// or with out-of-range coordinates are dropped (counted as truncated).
func (t *Trace) ObserveSuperstep(s SuperstepSample) {
	if s.Worker < 0 || s.Worker >= t.workers || s.Superstep < 1 {
		return
	}
	t.mu.Lock()
	if s.Superstep > t.maxSteps {
		t.truncated++
		warn, n := !t.warned && t.onTruncate != nil, t.truncated
		t.warned = true
		t.mu.Unlock()
		if warn {
			t.onTruncate(n)
		}
		return
	}
	for len(t.steps) < s.Superstep {
		t.steps = append(t.steps, traceStep{
			samples: make([]SuperstepSample, t.workers),
			seen:    make([]bool, t.workers),
		})
	}
	slot := &t.steps[s.Superstep-1]
	if !slot.seen[s.Worker] {
		slot.seen[s.Worker] = true
		slot.count++
	}
	slot.samples[s.Worker] = s
	var ev StepEvent
	fire := false
	if slot.count == t.workers && !slot.fired && t.onStep != nil {
		slot.fired = true
		fire = true
		ev = stepEvent(s.Superstep, slot.samples)
	}
	t.mu.Unlock()
	if fire {
		t.onStep(ev)
	}
}

// Samples returns every recorded sample in (superstep, worker) order —
// the canonical order the wire encoding and tests rely on.
func (t *Trace) Samples() []SuperstepSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SuperstepSample
	for _, step := range t.steps {
		for w, ok := range step.seen {
			if ok {
				out = append(out, step.samples[w])
			}
		}
	}
	return out
}

// TraceSnapshot is the JSON view of a trace: the superstep timeline
// with one entry per worker that reported the step.
type TraceSnapshot struct {
	Workers          int         `json:"workers"`
	TruncatedSamples int64       `json:"truncated_samples,omitempty"`
	Supersteps       []TraceStep `json:"supersteps"`
}

// TraceStep is one superstep of the timeline.
type TraceStep struct {
	Superstep int               `json:"superstep"`
	Workers   []SuperstepSample `json:"workers"`
}

// Snapshot returns a deep copy of the timeline for serving; the trace
// may keep collecting concurrently.
func (t *Trace) Snapshot() *TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := &TraceSnapshot{
		Workers:          t.workers,
		TruncatedSamples: t.truncated,
		Supersteps:       make([]TraceStep, 0, len(t.steps)),
	}
	for i, step := range t.steps {
		ts := TraceStep{Superstep: i + 1}
		for w, ok := range step.seen {
			if ok {
				s := step.samples[w]
				s.Channels = append([]ChannelSample(nil), s.Channels...)
				ts.Workers = append(ts.Workers, s)
			}
		}
		snap.Supersteps = append(snap.Supersteps, ts)
	}
	return snap
}
