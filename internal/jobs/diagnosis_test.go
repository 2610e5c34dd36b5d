package jobs_test

import (
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workerproc"
)

// TestDiagnosisNamesStragglerHub injects a deterministic
// 30ms-per-superstep "slow" fault into one worker and asserts the job
// report's diagnosis blames exactly that worker, with its flow matrix
// carrying the hub's relay stats.
func TestDiagnosisNamesStragglerHub(t *testing.T) {
	const slowWorker = 2
	mgr, _ := distributedManager(t, 4, nil,
		jobs.WithFault(&workerproc.FaultSpec{Kind: "slow", Worker: slowWorker, Superstep: 1}))
	snap, err := mgr.Submit(jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat",
		Params: algorithms.Params{Iterations: 20}, MaxSupersteps: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := awaitTerminal(t, mgr, snap.ID, time.Minute); final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}

	report, err := mgr.Report(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if report.State != jobs.StateDone {
		t.Fatalf("report state=%s", report.State)
	}
	rep := report.Diagnosis
	if got := rep.Straggler(); got != slowWorker {
		t.Fatalf("diagnosis blames worker %d, want %d\nworkers: %+v\nfindings: %+v",
			got, slowWorker, rep.Workers, rep.Findings)
	}
	if rep.Healthy {
		t.Fatal("report claims healthy despite the injected straggler")
	}
	if len(rep.Recommendations) == 0 {
		t.Fatal("straggler finding produced no recommendation")
	}

	fm := report.Flows
	if fm.Plane != "hub" {
		t.Fatalf("flow matrix plane=%q, want hub", fm.Plane)
	}
	if fm.Workers != 4 || len(fm.Flows) == 0 {
		t.Fatalf("flow matrix empty: workers=%d flows=%d", fm.Workers, len(fm.Flows))
	}
	var crossBytes int64
	for _, f := range fm.Flows {
		if f.Src != f.Dst {
			crossBytes += f.Bytes
		}
	}
	if crossBytes == 0 {
		t.Fatal("flow matrix carries no cross-worker bytes")
	}
	if len(fm.Relays) == 0 {
		t.Fatal("hub shipped no relay stats")
	}
}

// A kill fault with recovery enabled: the live event stream must carry
// superstep events before the crash, the recovering/running transition,
// superstep events from the respawned party, and the terminal state —
// one subscription across the whole job. The flow matrix afterwards must
// hold only the successful attempt's traffic (no double-counting), so it
// cannot exceed an undisturbed run's volume.
func TestLiveEventsAndFlowsAcrossRecovery(t *testing.T) {
	req := jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat",
		Params: algorithms.Params{Iterations: 50}, MaxSupersteps: 200000,
	}

	// undisturbed baseline for the volume bound
	cleanMgr, _ := distributedManager(t, 4, nil)
	cleanSnap, err := cleanMgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if s := awaitTerminal(t, cleanMgr, cleanSnap.ID, time.Minute); s.State != jobs.StateDone {
		t.Fatalf("baseline: state=%s err=%q", s.State, s.Error)
	}
	cleanRep, err := cleanMgr.Report(cleanSnap.ID)
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := totalFlowBytes(cleanRep.Flows)
	if cleanBytes == 0 {
		t.Fatal("baseline run recorded no flow bytes")
	}

	mgr, _ := distributedManager(t, 4, nil,
		jobs.WithRecovery(2, 1),
		jobs.WithFault(&workerproc.FaultSpec{Kind: "kill", Worker: 1, Superstep: 5}))
	snap, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	replay, live, cancel, err := mgr.Events(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	evs := append([]obs.JobEvent(nil), replay...)
	deadline := time.After(time.Minute)
collect:
	for {
		select {
		case ev, open := <-live:
			if !open {
				break collect // terminal reached, stream complete
			}
			evs = append(evs, ev)
		case <-deadline:
			t.Fatalf("event stream did not terminate; %d events so far", len(evs))
		}
	}

	recoveringAt, runningAfter := -1, -1
	var lastState string
	stepsSeen := map[int]int{}
	var lastSeq int64
	for i, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d not increasing past %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case "state":
			lastState = ev.State
			if ev.State == string(jobs.StateRecovering) && recoveringAt < 0 {
				recoveringAt = i
			}
			if recoveringAt >= 0 && ev.State == string(jobs.StateRunning) {
				runningAfter = i
			}
		case "superstep":
			if ev.Step == nil {
				t.Fatalf("superstep event without payload: %+v", ev)
			}
			stepsSeen[ev.Step.Superstep]++
		}
	}
	if recoveringAt < 0 {
		t.Fatalf("no recovering state event in %d events", len(evs))
	}
	if runningAfter < 0 {
		t.Fatal("no running state event after the recovery")
	}
	if lastState != string(jobs.StateDone) {
		t.Fatalf("stream ended on state %q, want done", lastState)
	}
	var afterRespawn int
	for i := runningAfter + 1; i < len(evs); i++ {
		if evs[i].Type == "superstep" {
			afterRespawn++
		}
	}
	if afterRespawn == 0 {
		t.Fatal("no superstep events after the respawn: the live feed did not survive recovery")
	}
	for step, n := range stepsSeen {
		if n > 1 {
			t.Fatalf("superstep %d completed %d times on the stream: events double-fired across recovery", step, n)
		}
	}

	rep, err := mgr.Report(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := totalFlowBytes(rep.Flows)
	if got == 0 {
		t.Fatal("recovered run recorded no flow bytes")
	}
	// only the clean respawned attempt may contribute; merging the dead
	// attempt too would push the total past the undisturbed run's
	if got > cleanBytes {
		t.Fatalf("recovered flow bytes %d exceed the undisturbed run's %d: attempts double-counted", got, cleanBytes)
	}
}

func totalFlowBytes(m *obs.FlowMatrix) int64 {
	var n int64
	for _, f := range m.Flows {
		n += f.Bytes
	}
	return n
}
