package obs

import "time"

// JobEvent is one entry of a job's live event stream: a lifecycle state
// transition or a completed superstep. Events are sequenced per job so
// stream consumers can detect gaps after a reconnect.
type JobEvent struct {
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	// Type is "state" for lifecycle transitions, "superstep" for
	// completed supersteps.
	Type string `json:"type"`
	// State is the job's lifecycle state at the event (always set).
	State string `json:"state"`
	// Error carries the terminal error message on failed jobs.
	Error string `json:"error,omitempty"`
	// Step is set on "superstep" events.
	Step *StepEvent `json:"step,omitempty"`
}

// StepEvent summarizes one completed superstep across all workers: the
// live-stream companion of a TraceStep, emitted once every worker's
// sample for the step has landed (in-process immediately; on the
// distributed path when the shipped samples arrive at the
// coordinator).
type StepEvent struct {
	Superstep int `json:"superstep"`
	Workers   int `json:"workers"`
	// ActiveVertices sums the workers' active counts entering the step.
	ActiveVertices int64 `json:"active_vertices"`
	// WallNS estimates the step's wall time: the slowest worker's
	// compute + barrier-wait total.
	WallNS int64 `json:"wall_ns"`
	// MaxComputeNS / MeanComputeNS capture compute skew across workers;
	// Skew is their ratio (1.0 = perfectly balanced).
	MaxComputeNS  int64   `json:"max_compute_ns"`
	MeanComputeNS int64   `json:"mean_compute_ns"`
	Skew          float64 `json:"skew"`
}

// stepEvent builds the summary of one fully-reported trace step.
func stepEvent(superstep int, samples []SuperstepSample) StepEvent {
	ev := StepEvent{Superstep: superstep, Workers: len(samples)}
	var sumCompute int64
	for _, s := range samples {
		ev.ActiveVertices += s.ActiveVertices
		sumCompute += s.ComputeNS
		if s.ComputeNS > ev.MaxComputeNS {
			ev.MaxComputeNS = s.ComputeNS
		}
		ev.WallNS = max(ev.WallNS, s.ComputeNS+s.BarrierWaitNS)
	}
	if len(samples) > 0 {
		ev.MeanComputeNS = sumCompute / int64(len(samples))
	}
	if ev.MeanComputeNS > 0 {
		ev.Skew = float64(ev.MaxComputeNS) / float64(ev.MeanComputeNS)
	}
	return ev
}
