package obs

import (
	"strings"
	"sync"
	"testing"
)

// Concurrent Record calls from many goroutines must tally exactly and
// keep the max-frame high-water mark, the contract the fabrics rely on
// at the flush seam.
func TestFlowAccumRecordConcurrent(t *testing.T) {
	const workers, goroutines, per = 4, 8, 1000
	a := NewFlowAccum(workers)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Record(g%workers, (g+1)%workers, int64(1+i%7))
			}
		}(g)
	}
	wg.Wait()
	m := a.Matrix()
	if m.Workers != workers {
		t.Fatalf("workers=%d", m.Workers)
	}
	var frames int64
	for _, f := range m.Flows {
		frames += f.Frames
		if f.MaxFrame != 7 {
			t.Errorf("flow %d->%d max_frame=%d, want 7", f.Src, f.Dst, f.MaxFrame)
		}
		if f.Rounds != f.Frames {
			t.Errorf("flow %d->%d rounds=%d frames=%d", f.Src, f.Dst, f.Rounds, f.Frames)
		}
	}
	if want := int64(goroutines * per); frames != want {
		t.Fatalf("total frames=%d, want %d", frames, want)
	}
	// out-of-range endpoints are dropped, not a panic or a stray cell
	a.Record(-1, 0, 10)
	a.Record(0, workers, 10)
	if got := a.Matrix().Flow(0, 0).Bytes; got != 0 {
		t.Fatalf("out-of-range Record leaked into (0,0): %d bytes", got)
	}
}

// The hot-path contract the fabrics rely on: Record never allocates.
func TestFlowAccumRecordZeroAlloc(t *testing.T) {
	a := NewFlowAccum(4)
	if n := testing.AllocsPerRun(1000, func() { a.Record(0, 1, 128) }); n != 0 {
		t.Fatalf("Record allocates %v per call", n)
	}
}

// Merge must add cells, keep the max of maxima, adopt the shipped plane
// once, and append the relay stats — the coordinator's per-partial
// fold.
func TestFlowAccumMerge(t *testing.T) {
	a := NewFlowAccum(2)
	part := &FlowMatrix{
		Plane: "hub", Workers: 2,
		Flows:  []FlowStat{{Src: 0, Dst: 1, Bytes: 100, Frames: 2, MaxFrame: 70}},
		Relays: []RelayStat{{Lo: 0, Hi: 1, Bytes: 9, Frames: 1}},
	}
	a.Merge(part)
	a.Merge(&FlowMatrix{Plane: "inproc", Workers: 2,
		Flows: []FlowStat{{Src: 0, Dst: 1, Bytes: 50, Frames: 1, MaxFrame: 50}}})
	a.Merge(nil) // no-op
	m := a.Matrix()
	f := m.Flow(0, 1)
	if f.Bytes != 150 || f.Frames != 3 || f.MaxFrame != 70 {
		t.Fatalf("merged cell %+v", f)
	}
	if m.Plane != "hub" {
		t.Fatalf("plane=%q, want first shipped plane to stick", m.Plane)
	}
	if len(m.Relays) != 1 || m.Relays[0].Bytes != 9 {
		t.Fatalf("relays %+v", m.Relays)
	}
	if got := m.Flow(1, 0); got.Bytes != 0 || got.Src != 1 || got.Dst != 0 {
		t.Fatalf("empty cell lookup %+v", got)
	}
}

// syntheticTrace builds a trace where worker slow spends its time
// computing while everyone else waits at barriers — the straggler
// signature Diagnose must pick up.
func syntheticTrace(workers, steps, slow int) *TraceSnapshot {
	snap := &TraceSnapshot{Workers: workers}
	for s := 1; s <= steps; s++ {
		ts := TraceStep{Superstep: s}
		for w := 0; w < workers; w++ {
			sample := SuperstepSample{Worker: w, Superstep: s, ComputeNS: 1e6, BarrierWaitNS: 9e6}
			if w == slow {
				sample = SuperstepSample{Worker: w, Superstep: s, ComputeNS: 9e6, BarrierWaitNS: 1e6}
			}
			ts.Workers = append(ts.Workers, sample)
		}
		snap.Supersteps = append(snap.Supersteps, ts)
	}
	return snap
}

func TestDiagnoseNamesStraggler(t *testing.T) {
	trace := syntheticTrace(4, 10, 2)
	rep := Diagnose(trace, &FlowMatrix{Plane: "hub", Workers: 4}, RunMetrics{Supersteps: 10})
	if rep.Healthy {
		t.Fatal("report healthy despite straggler")
	}
	if got := rep.Straggler(); got != 2 {
		t.Fatalf("straggler=%d, want 2\nfindings: %+v", got, rep.Findings)
	}
	// workers ranked straggler-first
	if len(rep.Workers) != 4 || rep.Workers[0].Worker != 2 {
		t.Fatalf("worker ranking %+v", rep.Workers)
	}
	if rep.Workers[0].Cause != "compute" {
		t.Fatalf("cause=%q, want compute for a compute-dominated straggler", rep.Workers[0].Cause)
	}
	// findings ordered most severe first
	for i := 1; i < len(rep.Findings); i++ {
		rank := map[string]int{"critical": 0, "warn": 1, "info": 2}
		if rank[rep.Findings[i-1].Severity] > rank[rep.Findings[i].Severity] {
			t.Fatalf("findings out of severity order: %+v", rep.Findings)
		}
	}
	if len(rep.Recommendations) == 0 {
		t.Fatal("no recommendations for an unhealthy run")
	}

	// A straggler whose time went into its flushes is blamed on sending,
	// and the advice names no knob the system does not have.
	for _, step := range trace.Supersteps {
		s := &step.Workers[2]
		s.ComputeNS, s.SendStallNS = 2e6, 7e6
	}
	rep = Diagnose(trace, nil, RunMetrics{})
	if rep.Straggler() != 2 || rep.Workers[0].Cause != "send_stall" {
		t.Fatalf("send-bound straggler: %+v", rep.Workers)
	}
	for _, r := range rep.Recommendations {
		if strings.Contains(r, "-window") || strings.Contains(r, "p2p") || strings.Contains(r, "-data-plane") {
			t.Errorf("recommendation names a removed flag: %q", r)
		}
	}
}

func TestDiagnoseHealthyAndNilInputs(t *testing.T) {
	// balanced run: no findings, healthy
	snap := &TraceSnapshot{Workers: 2}
	for s := 1; s <= 5; s++ {
		snap.Supersteps = append(snap.Supersteps, TraceStep{Superstep: s, Workers: []SuperstepSample{
			{Worker: 0, Superstep: s, ComputeNS: 5e6, BarrierWaitNS: 1e6},
			{Worker: 1, Superstep: s, ComputeNS: 5e6, BarrierWaitNS: 1e6},
		}})
	}
	if rep := Diagnose(snap, nil, RunMetrics{}); !rep.Healthy || len(rep.Findings) != 0 {
		t.Fatalf("balanced run not healthy: %+v", rep.Findings)
	}
	// all-nil inputs: an empty healthy report, not a panic
	if rep := Diagnose(nil, nil, RunMetrics{}); !rep.Healthy || rep.Straggler() != -1 {
		t.Fatalf("nil-input report %+v", rep)
	}
	// truncated trace surfaces as a warn finding
	snap.TruncatedSamples = 7
	rep := Diagnose(snap, nil, RunMetrics{})
	if rep.Healthy || len(rep.Findings) != 1 || rep.Findings[0].Kind != "trace_truncated" {
		t.Fatalf("truncation finding missing: healthy=%v findings=%+v", rep.Healthy, rep.Findings)
	}
}

// A hub hotspot is a source far above its fair share of the relayed
// volume. Of two processes one always sources at least half, so two can
// never make one; and no plane that hangs may be recommended as the way
// out.
func TestDiagnoseHubHotspotJudgedAgainstFairShare(t *testing.T) {
	relays := func(bytes ...int64) *FlowMatrix {
		fm := &FlowMatrix{Plane: "hub", Workers: 2 * len(bytes)}
		for i, b := range bytes {
			fm.Relays = append(fm.Relays, RelayStat{Lo: 2 * i, Hi: 2*i + 2, Bytes: b, Frames: 10, ResidencyNS: 1e6})
		}
		return fm
	}
	for _, tc := range []struct {
		name  string
		flows *FlowMatrix
		want  string // the hotspot's relay range, "" for none
	}{
		{"two sources, 57 to 43", relays(57, 43), ""},
		{"two sources, one silent", relays(100, 0), ""},
		{"three sources, 60 percent is under 2x a third", relays(60, 20, 20), ""},
		{"four balanced sources", relays(25, 25, 25, 25), ""},
		{"four sources, one at 70 percent", relays(10, 70, 10, 10), "w[2-3]"},
	} {
		rep := Diagnose(nil, tc.flows, RunMetrics{})
		var got []Finding
		for _, f := range rep.Findings {
			if f.Kind == "hub_hotspot" {
				got = append(got, f)
			}
		}
		if tc.want == "" {
			if len(got) != 0 || len(rep.Recommendations) != 0 {
				t.Errorf("%s: findings %+v, recommendations %q; want none", tc.name, got, rep.Recommendations)
			}
			continue
		}
		if len(got) != 1 || got[0].Conn != tc.want || got[0].Threshold != HubHotspotSkew/float64(len(tc.flows.Relays)) {
			t.Errorf("%s: findings %+v, want one naming %s", tc.name, got, tc.want)
		}
		if !rep.Healthy {
			t.Errorf("%s: an info finding made the report unhealthy", tc.name)
		}
		for _, r := range rep.Recommendations {
			if strings.Contains(r, "p2p") {
				t.Errorf("%s: recommends a p2p plane: %q", tc.name, r)
			}
		}
	}
}
