package jobs_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/catalog"
	"repro/internal/jobs"
	"repro/internal/netcomm"
	"repro/internal/obs"
	"repro/internal/workerproc"
)

// testDiagnosisNamesStraggler injects a deterministic 30ms-per-superstep
// "slow" fault into one worker and asserts the diagnosis endpoint blames
// exactly that worker, with the flow matrix carrying the plane's
// transport extras.
func testDiagnosisNamesStraggler(t *testing.T, plane string) {
	const slowWorker = 2
	mgr, _ := distributedManager(t, 4, nil,
		jobs.WithDataPlane(plane, 0),
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

	rep, state, err := mgr.Diagnosis(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if state != jobs.StateDone {
		t.Fatalf("diagnosis state=%s", state)
	}
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

	fm, _, err := mgr.Flows(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Plane != plane {
		t.Fatalf("flow matrix plane=%q, want %q", fm.Plane, plane)
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
	switch plane {
	case netcomm.DataPlaneHub:
		if len(fm.Relays) == 0 {
			t.Fatal("hub plane shipped no relay stats")
		}
		if len(fm.Conns) != 0 {
			t.Fatalf("hub plane reports p2p conns: %+v", fm.Conns)
		}
	case netcomm.DataPlaneP2P:
		if len(fm.Conns) == 0 {
			t.Fatal("p2p plane shipped no connection stats")
		}
		if len(fm.Relays) != 0 {
			t.Fatalf("p2p plane reports hub relays: %+v", fm.Relays)
		}
	}
}

func TestDiagnosisNamesStragglerHub(t *testing.T) {
	testDiagnosisNamesStraggler(t, netcomm.DataPlaneHub)
}

func TestDiagnosisNamesStragglerP2P(t *testing.T) {
	testDiagnosisNamesStraggler(t, netcomm.DataPlaneP2P)
}

// A p2p job pushed through a deliberately small 64 KiB window on a
// message-heavy graph stalls on credit, and the diagnosis must call a
// connection window-bound exactly when the stall it reports in /flows is
// the threshold fraction of the run. Whether a given run gets there is
// wall-clock weather (a loaded box or the race detector stretch compute,
// the stall stays network-bound) and the verdict logic has its own
// deterministic test (obs.TestDiagnoseNamesStragglerAndWindow); what the
// real processes prove is that stall, grants and window reach the flow
// matrix and that Diagnosis reads the same numbers.
func TestDiagnosisFindsWindowBoundConnP2P(t *testing.T) {
	const window = 64 << 10
	mgr, cat := distributedManager(t, 2, nil,
		jobs.WithDataPlane(netcomm.DataPlaneP2P, window))
	if err := cat.Register(catalog.Spec{Name: "rmat-dense", Gen: "rmat:scale=15,ef=16,seed=7"}); err != nil {
		t.Fatal(err)
	}
	snap, err := mgr.Submit(jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat-dense",
		Params: algorithms.Params{Iterations: 60}, MaxSupersteps: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := awaitTerminal(t, mgr, snap.ID, 2*time.Minute); final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}

	fm, _, err := mgr.Flows(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Conns) == 0 {
		t.Fatal("no p2p connection stats")
	}
	var stalled bool
	for _, c := range fm.Conns {
		if c.Window != window {
			t.Fatalf("conn window=%d, want %d: %+v", c.Window, window, c)
		}
		if c.StallNS > 0 {
			stalled = true
			if c.Grants == 0 {
				t.Fatalf("conn stalled but recorded no credit grants: %+v", c)
			}
		}
	}
	if !stalled {
		t.Fatalf("no connection recorded credit stall under a %d-byte window: %+v", window, fm.Conns)
	}

	// the diagnosis' denominator: per superstep, the busiest worker's
	// accounted time
	tr, _, err := mgr.Trace(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	var wall int64
	for _, step := range tr.Supersteps {
		var busiest int64
		for _, s := range step.Workers {
			busiest = max(busiest, s.ComputeNS+s.BarrierWaitNS+s.SendStallNS)
		}
		wall += busiest
	}
	if wall == 0 {
		t.Fatal("job has no superstep trace")
	}
	want := map[string]bool{}
	for _, c := range fm.Conns {
		if float64(c.StallNS)/float64(wall) >= obs.WindowBoundStallFraction {
			want[fmt.Sprintf("w[%d-%d]->w[%d-%d]", c.LocalLo, c.LocalHi-1, c.PeerLo, c.PeerHi-1)] = true
		}
	}

	rep, _, err := mgr.Diagnosis(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range rep.Findings {
		if f.Kind == "window_bound" {
			got[f.Conn] = true
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("window_bound findings name %v, the flows put %v over the stall fraction (wall %d ns)\nfindings: %+v\nconns: %+v",
			got, want, wall, rep.Findings, fm.Conns)
	}
	for conn := range want {
		if conn != "w[0-1]->w[2-3]" && conn != "w[2-3]->w[0-1]" {
			t.Fatalf("window_bound names %q, want one direction of the only mesh connection", conn)
		}
		if !slices.ContainsFunc(rep.Recommendations, func(r string) bool {
			return strings.Contains(r, conn) && strings.Contains(r, "window-bytes")
		}) {
			t.Fatalf("no window recommendation for %s in %+v", conn, rep.Recommendations)
		}
	}
}

// The same deliberately small 64 KiB window on the same message-heavy
// graph must NOT be window-bound on the adaptive plane: the receiver's
// controller observes the oversized rounds and grows the window out of
// the stall, so the run self-heals where the static plane needed the
// operator to raise -window-bytes.
func TestDiagnosisAdaptiveWindowEscapesStall(t *testing.T) {
	const window = 64 << 10
	mgr, cat := distributedManager(t, 2, nil,
		jobs.WithDataPlane(netcomm.DataPlaneP2PAdaptive, window))
	if err := cat.Register(catalog.Spec{Name: "rmat-dense", Gen: "rmat:scale=15,ef=16,seed=7"}); err != nil {
		t.Fatal(err)
	}
	snap, err := mgr.Submit(jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat-dense",
		Params: algorithms.Params{Iterations: 60}, MaxSupersteps: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := awaitTerminal(t, mgr, snap.ID, 2*time.Minute); final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}

	fm, _, err := mgr.Flows(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Plane != netcomm.DataPlaneP2PAdaptive {
		t.Fatalf("flow matrix plane=%q, want %q", fm.Plane, netcomm.DataPlaneP2PAdaptive)
	}
	if len(fm.Conns) == 0 {
		t.Fatal("no connection stats: the hot pair was never promoted")
	}
	var grew bool
	for _, c := range fm.Conns {
		if c.Window == 0 {
			continue // relay-only row
		}
		if c.Resizes > 0 && c.WindowPeak > window {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("no connection grew out of the %d-byte window: %+v", window, fm.Conns)
	}

	rep, _, err := mgr.Diagnosis(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		if f.Kind == "window_bound" {
			t.Fatalf("adaptive plane still window-bound: %+v\nconns: %+v", f, fm.Conns)
		}
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
	cleanFM, _, err := cleanMgr.Flows(cleanSnap.ID)
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := totalFlowBytes(cleanFM)
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

	fm, _, err := mgr.Flows(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := totalFlowBytes(fm)
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
