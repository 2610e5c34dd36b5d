package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/catalog"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// sseEvent is one parsed frame off the /events stream.
type sseEvent struct {
	id    string
	event string
	data  obs.JobEvent
}

// readSSE parses frames off an open event stream until the server closes
// it or maxEvents arrive.
func readSSE(t *testing.T, body *bufio.Scanner, maxEvents int) []sseEvent {
	t.Helper()
	var evs []sseEvent
	var cur sseEvent
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if cur.event != "" {
				evs = append(evs, cur)
				cur = sseEvent{}
				if len(evs) >= maxEvents {
					return evs
				}
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	return evs
}

// End-to-end flow telemetry over HTTP: a multi-process job streamed live
// over /events while in flight, then the flow matrix and diagnosis
// sections of its /report, all under -race in CI.
func TestFlowsDiagnosisAndSSEEndToEnd(t *testing.T) {
	cat := catalog.New(4, 0)
	t.Cleanup(cat.Close)
	if err := cat.Register(catalog.Spec{Name: "rmat", Gen: "rmat:scale=7,ef=5,seed=21"}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mgr := jobs.NewManager(cat, 2,
		jobs.WithMetrics(reg),
		jobs.WithWorkerProcs(2, os.Args[0]))
	ts := httptest.NewServer(New(cat, mgr, WithRegistry(reg), WithVersion("test-1")).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(mgr.Close)

	// a long enough job that the SSE subscription is live mid-flight
	snap, status := postJob(t, ts.URL, jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat",
		Params: algorithms.Params{Iterations: 200}, MaxSupersteps: 200000,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	evs := readSSE(t, bufio.NewScanner(resp.Body), 1<<20)
	if len(evs) == 0 {
		t.Fatal("no SSE events before stream end")
	}
	var steps, states int
	var lastSeq int64
	for _, ev := range evs {
		seq := ev.data.Seq
		if seq <= lastSeq {
			t.Fatalf("SSE ids not increasing: %d after %d", seq, lastSeq)
		}
		lastSeq = seq
		switch ev.event {
		case "superstep":
			steps++
			if ev.data.Step == nil || ev.data.Step.Workers != 4 {
				t.Fatalf("superstep frame without payload: %+v", ev.data)
			}
		case "state":
			states++
		default:
			t.Fatalf("unknown SSE event type %q", ev.event)
		}
	}
	if steps == 0 {
		t.Fatalf("no superstep events on the stream (%d state events)", states)
	}
	last := evs[len(evs)-1]
	if last.event != "state" || last.data.State != string(jobs.StateDone) {
		t.Fatalf("stream did not end on the terminal state: %+v", last)
	}

	if final := waitDone(t, ts.URL, snap.ID); final.State != jobs.StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}

	var rep jobs.Report
	getJSON(t, ts.URL+"/v1/jobs/"+snap.ID+"/report", http.StatusOK, &rep)
	if rep.ID != snap.ID || rep.State != jobs.StateDone || rep.Flows == nil || rep.Diagnosis == nil {
		t.Fatalf("report payload %+v", rep)
	}
	flows := rep.Flows
	if flows.Plane != "hub" || flows.Workers != 4 || len(flows.Flows) == 0 {
		t.Fatalf("flows section %+v", flows)
	}
	for _, f := range flows.Flows {
		if f.Frames == 0 || f.Bytes == 0 || f.MaxFrame == 0 {
			t.Fatalf("degenerate flow cell %+v", f)
		}
	}
	if len(flows.Relays) == 0 {
		t.Fatal("hub job shipped no relay stats")
	}

	if len(rep.Diagnosis.Workers) != 4 {
		t.Fatalf("diagnosis section %+v", rep.Diagnosis)
	}

	// a finished job's stream replays instantly and still terminates
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, bufio.NewScanner(resp2.Body), 1<<20)
	if len(replay) == 0 || replay[len(replay)-1].data.State != string(jobs.StateDone) {
		t.Fatalf("terminal replay has %d events", len(replay))
	}

	// unknown jobs 404 on both endpoints
	for _, ep := range []string{"report", "events"} {
		getJSON(t, ts.URL+"/v1/jobs/j-999999/"+ep, http.StatusNotFound, nil)
	}

	// the new build/uptime/superstep instruments are scraped
	body := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`graphd_build_info{version="test-1",go_version="go`,
		"graphd_uptime_seconds ",
		"# TYPE graphd_superstep_seconds histogram",
		"graphd_superstep_seconds_count ",
		"graphd_diagnosis_findings_total",
		"graphd_diagnosis_unhealthy_jobs_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// The SSE handler must also ride out a client that disconnects mid-
// stream without wedging the job or the manager.
func TestSSEClientDisconnect(t *testing.T) {
	cat := catalog.New(4, 0)
	t.Cleanup(cat.Close)
	if err := cat.Register(catalog.Spec{Name: "rmat", Gen: "rmat:scale=7,ef=5,seed=21"}); err != nil {
		t.Fatal(err)
	}
	mgr := jobs.NewManager(cat, 2)
	ts := httptest.NewServer(New(cat, mgr).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(mgr.Close)

	snap, status := postJob(t, ts.URL, jobs.Request{
		Algorithm: "pagerank", Dataset: "rmat",
		Params: algorithms.Params{Iterations: 500}, MaxSupersteps: 200000,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	// read a line or two, then hang up mid-stream
	buf := make([]byte, 64)
	_, _ = resp.Body.Read(buf)
	resp.Body.Close()

	if final := waitDone(t, ts.URL, snap.ID); final.State != jobs.StateDone {
		t.Fatalf("after SSE hangup: state=%s err=%q", final.State, final.Error)
	}
	time.Sleep(10 * time.Millisecond) // let the handler's cancel run under -race
}
