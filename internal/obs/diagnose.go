package obs

import (
	"fmt"
	"sort"
)

// RunMetrics carries the job-level facts Diagnose correlates with the
// trace and flow matrix. Callers fill what they have; zero values mean
// "unknown" and disable the corresponding checks.
type RunMetrics struct {
	Supersteps int `json:"supersteps"`
	// NetBytes is the job's total cross-worker volume.
	NetBytes int64 `json:"net_bytes"`
	// EdgeCut is the placement's cross-worker edge fraction in [0, 1];
	// negative means unknown.
	EdgeCut float64 `json:"edge_cut"`
}

// WorkerProfile is one worker's whole-run time and traffic breakdown,
// the substrate of the straggler ranking. Shares are fractions of the
// busiest worker's total accounted time (compute + barrier wait) — a
// fleet-common denominator, so the shares of different workers are
// comparable and a worker whose time disappeared outside the
// instrumented regions (descheduled, faulted, parked in a sleep) shows
// small shares instead of normalized-away ones.
type WorkerProfile struct {
	Worker        int     `json:"worker"`
	ComputeNS     int64   `json:"compute_ns"`
	BarrierWaitNS int64   `json:"barrier_wait_ns"`
	ComputeShare  float64 `json:"compute_share"`
	WaitShare     float64 `json:"wait_share"`
	BytesSent     int64   `json:"bytes_sent"`
	BytesRecv     int64   `json:"bytes_recv"`
	// StragglerScore is how far the worker's barrier-wait share sits
	// below the fleet mean: peers waiting on a straggler accumulate
	// barrier time, the straggler itself does not, so a large positive
	// score marks the worker the others were waiting for.
	StragglerScore float64 `json:"straggler_score"`
	// Cause attributes the straggler's missing wait time: "compute"
	// when its own compute dominates, "unattributed" otherwise (external
	// slowness — a descheduled or faulty process). Empty for
	// non-stragglers.
	Cause string `json:"cause,omitempty"`
}

// Finding is one machine-readable diagnosis result.
type Finding struct {
	// Kind: "straggler", "imbalance", "hub_hotspot", "trace_truncated".
	Kind string `json:"kind"`
	// Severity: "info", "warn" or "critical".
	Severity string `json:"severity"`
	// Worker is the implicated worker (findings about one worker), -1
	// otherwise.
	Worker int `json:"worker"`
	// Conn names the implicated relay range, e.g. "w[0-3]"; empty
	// otherwise.
	Conn string `json:"conn,omitempty"`
	// Value is the measured signal, Threshold what it was compared to
	// (both in the unit Detail explains).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Detail    string  `json:"detail"`
}

// Report is the structured output of Diagnose.
type Report struct {
	// Healthy is true when no finding reached warn severity.
	Healthy bool `json:"healthy"`
	// Findings, most severe first.
	Findings []Finding `json:"findings"`
	// Workers holds the per-worker profiles ranked by straggler score,
	// worst first.
	Workers []WorkerProfile `json:"workers"`
	// Recommendations are human-readable next steps, one per actionable
	// finding.
	Recommendations []string `json:"recommendations"`
}

// Straggler returns the worker id of the top straggler finding, or -1
// if the run had none.
func (r *Report) Straggler() int {
	for _, f := range r.Findings {
		if f.Kind == "straggler" {
			return f.Worker
		}
	}
	return -1
}

// Diagnosis thresholds. Exported so operators reading a report can see
// what the verdicts mean; tests pin behaviour against them.
const (
	// StragglerWaitDeficit is the barrier-wait-share gap below the
	// fleet mean at which a worker is called a straggler.
	StragglerWaitDeficit = 0.15
	// ImbalanceSkew is the max/mean compute ratio at which the run is
	// called compute-imbalanced.
	ImbalanceSkew = 1.5
	// HubHotspotSkew is the multiple of its fair share (1 / relay
	// sources) of the hub's relay volume one worker process must source
	// to be called the relay's hotspot.
	HubHotspotSkew = 2.0
	// HubHotspotMinSources is the fewest relay sources among which a
	// hotspot means anything: of two processes one always sources at
	// least half.
	HubHotspotMinSources = 3
)

// Diagnose correlates a job's superstep trace, flow matrix and run
// metrics into a bottleneck report: who the others waited for and why,
// whether compute imbalance tracks the placement's edge cut, and
// whether the hub relay has a dominant source. Any input may be
// nil/zero; the corresponding checks are skipped.
func Diagnose(trace *TraceSnapshot, flows *FlowMatrix, m RunMetrics) *Report {
	rep := &Report{}
	profiles := profileWorkers(trace)
	diagnoseStragglers(rep, profiles, trace)
	diagnoseImbalance(rep, profiles, m)
	diagnoseHubRelay(rep, flows)
	if trace != nil && trace.TruncatedSamples > 0 {
		rep.Findings = append(rep.Findings, Finding{
			Kind: "trace_truncated", Severity: "warn", Worker: -1,
			Value: float64(trace.TruncatedSamples), Threshold: 0,
			Detail: fmt.Sprintf("trace ring dropped %d samples beyond its %d-superstep cap; per-step diagnosis covers a prefix of the run",
				trace.TruncatedSamples, len(trace.Supersteps)),
		})
		rep.Recommendations = append(rep.Recommendations,
			"superstep timeline is truncated: cap the run's supersteps or diagnose from the retained prefix")
	}
	rep.Workers = profiles
	sortFindings(rep.Findings)
	rep.Healthy = true
	for _, f := range rep.Findings {
		if f.Severity != "info" {
			rep.Healthy = false
			break
		}
	}
	return rep
}

// profileWorkers folds a trace into per-worker whole-run profiles,
// ranked by straggler score (worst first).
func profileWorkers(trace *TraceSnapshot) []WorkerProfile {
	if trace == nil || trace.Workers == 0 || len(trace.Supersteps) == 0 {
		return nil
	}
	profs := make([]WorkerProfile, trace.Workers)
	for w := range profs {
		profs[w].Worker = w
	}
	for _, step := range trace.Supersteps {
		for _, s := range step.Workers {
			if s.Worker < 0 || s.Worker >= len(profs) {
				continue
			}
			p := &profs[s.Worker]
			p.ComputeNS += s.ComputeNS
			p.BarrierWaitNS += s.BarrierWaitNS
			p.BytesSent += s.BytesSent
			p.BytesRecv += s.BytesRecv
		}
	}
	// The share denominator is the busiest worker's accounted total, not
	// each worker's own: a straggler that spent the run descheduled or
	// parked in a sleep has little accounted time at all, and dividing
	// its barrier wait by its own tiny total would hand it a wait share
	// near 1 — hiding exactly the worker the metric exists to expose.
	// Against the fleet-wide denominator its wait share is honestly
	// small and the deficit below the mean stands out.
	var denom int64
	for w := range profs {
		denom = max(denom, profs[w].ComputeNS+profs[w].BarrierWaitNS)
	}
	if denom == 0 {
		return profs
	}
	var meanWait float64
	counted := 0
	for w := range profs {
		p := &profs[w]
		if p.ComputeNS+p.BarrierWaitNS == 0 {
			continue
		}
		p.ComputeShare = float64(p.ComputeNS) / float64(denom)
		p.WaitShare = float64(p.BarrierWaitNS) / float64(denom)
		meanWait += p.WaitShare
		counted++
	}
	if counted > 0 {
		meanWait /= float64(counted)
	}
	for w := range profs {
		p := &profs[w]
		if p.ComputeNS+p.BarrierWaitNS == 0 {
			continue
		}
		p.StragglerScore = meanWait - p.WaitShare
	}
	sort.SliceStable(profs, func(i, k int) bool {
		return profs[i].StragglerScore > profs[k].StragglerScore
	})
	return profs
}

// diagnoseStragglers flags workers whose barrier-wait share sits far
// below the fleet mean and attributes the cause.
func diagnoseStragglers(rep *Report, profs []WorkerProfile, trace *TraceSnapshot) {
	if len(profs) < 2 || trace == nil || len(trace.Supersteps) < 2 {
		return
	}
	for i := range profs {
		p := &profs[i]
		if p.StragglerScore < StragglerWaitDeficit {
			break // ranked worst-first; the rest score lower
		}
		// Attribute: where did the straggler's time go instead of
		// waiting? Compute share dominating means a genuine compute
		// skew; otherwise the process itself was slow (descheduled,
		// faulted, sleeping).
		p.Cause = "unattributed"
		if p.ComputeShare >= 0.5 {
			p.Cause = "compute"
		}
		sev := "warn"
		if p.StragglerScore >= 2*StragglerWaitDeficit {
			sev = "critical"
		}
		rep.Findings = append(rep.Findings, Finding{
			Kind: "straggler", Severity: sev, Worker: p.Worker,
			Value: p.StragglerScore, Threshold: StragglerWaitDeficit,
			Detail: fmt.Sprintf("worker %d waited %.0f%% of the run at barriers vs a fleet mean of %.0f%%: the others were waiting for it (cause: %s)",
				p.Worker, p.WaitShare*100, (p.WaitShare+p.StragglerScore)*100, p.Cause),
		})
		if p.Cause == "compute" {
			rep.Recommendations = append(rep.Recommendations, fmt.Sprintf(
				"worker %d is compute-bound ahead of its peers: rebalance the partition (try greedy placement) or shrink its vertex range", p.Worker))
		} else {
			rep.Recommendations = append(rep.Recommendations, fmt.Sprintf(
				"worker %d is slow for reasons outside the engine (host contention, fault injection, GC): inspect that process", p.Worker))
		}
	}
}

// diagnoseImbalance flags compute skew and notes whether the placement's
// edge cut plausibly explains it.
func diagnoseImbalance(rep *Report, profs []WorkerProfile, m RunMetrics) {
	if len(profs) < 2 {
		return
	}
	var sum, max int64
	for _, p := range profs {
		sum += p.ComputeNS
		if p.ComputeNS > max {
			max = p.ComputeNS
		}
	}
	if sum == 0 {
		return
	}
	mean := float64(sum) / float64(len(profs))
	if mean == 0 {
		return
	}
	skew := float64(max) / mean
	if skew < ImbalanceSkew {
		return
	}
	detail := fmt.Sprintf("compute skew %.2fx (slowest worker vs mean)", skew)
	if m.EdgeCut > 0 {
		detail += fmt.Sprintf("; placement edge cut %.0f%%", m.EdgeCut*100)
	}
	rep.Findings = append(rep.Findings, Finding{
		Kind: "imbalance", Severity: "info", Worker: -1,
		Value: skew, Threshold: ImbalanceSkew, Detail: detail,
	})
	rep.Recommendations = append(rep.Recommendations,
		"compute is imbalanced across workers: try greedy placement or more workers")
}

// diagnoseHubRelay flags a dominant relay source on the hub plane: a
// worker process whose share of the relayed volume — what crossed the
// hub; frames between co-hosted workers never do — is a multiple of the
// fair share among the sources.
func diagnoseHubRelay(rep *Report, flows *FlowMatrix) {
	if flows == nil || len(flows.Relays) < HubHotspotMinSources {
		return
	}
	var total int64
	for _, r := range flows.Relays {
		total += r.Bytes
	}
	if total == 0 {
		return
	}
	threshold := HubHotspotSkew / float64(len(flows.Relays))
	for _, r := range flows.Relays {
		share := float64(r.Bytes) / float64(total)
		if share < threshold {
			continue
		}
		name := fmt.Sprintf("w[%d-%d]", r.Lo, r.Hi-1)
		rep.Findings = append(rep.Findings, Finding{
			Kind: "hub_hotspot", Severity: "info", Worker: -1, Conn: name,
			Value: share, Threshold: threshold,
			Detail: fmt.Sprintf("worker range %s sourced %.0f%% of hub relay volume, %.1fx its fair share among %d sources (%d bytes, %d frames, %.2fms total relay residency)",
				name, share*100, share*float64(len(flows.Relays)), len(flows.Relays), r.Bytes, r.Frames, float64(r.ResidencyNS)/1e6),
		})
		rep.Recommendations = append(rep.Recommendations, fmt.Sprintf(
			"hub relay is dominated by %s: rebalance the placement so its workers send less across processes", name))
	}
}

// sortFindings orders findings most severe first, stable within a
// severity.
func sortFindings(fs []Finding) {
	rank := func(sev string) int {
		switch sev {
		case "critical":
			return 0
		case "warn":
			return 1
		default:
			return 2
		}
	}
	sort.SliceStable(fs, func(i, k int) bool {
		return rank(fs[i].Severity) < rank(fs[k].Severity)
	})
}
