package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// flowsPayload is the JSON shape of GET /v1/jobs/{id}/flows: the job's
// flow-level network picture. Flows lists the non-empty (src, dst)
// matrix cells; relays carries the hub relay stats, empty in-process.
type flowsPayload struct {
	ID      string          `json:"id"`
	State   jobs.State      `json:"state"`
	Plane   string          `json:"plane,omitempty"`
	Workers int             `json:"workers"`
	Flows   []obs.FlowStat  `json:"flows"`
	Relays  []obs.RelayStat `json:"relays,omitempty"`
}

func (s *Server) getFlows(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, state, err := s.mgr.Flows(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	p := flowsPayload{ID: id, State: state, Plane: m.Plane, Workers: m.Workers,
		Flows: m.Flows, Relays: m.Relays}
	if p.Flows == nil {
		p.Flows = []obs.FlowStat{}
	}
	writeJSON(w, http.StatusOK, p)
}

// diagnosisPayload is the JSON shape of GET /v1/jobs/{id}/diagnosis.
type diagnosisPayload struct {
	ID     string      `json:"id"`
	State  jobs.State  `json:"state"`
	Report *obs.Report `json:"report"`
}

func (s *Server) getDiagnosis(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, state, err := s.mgr.Diagnosis(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, diagnosisPayload{ID: id, State: state, Report: rep})
}

// streamEvents serves GET /v1/jobs/{id}/events as Server-Sent Events:
// every retained event replays first, then live events follow as the
// job produces them, and the stream ends when the job reaches a
// terminal state. Each frame is
//
//	id: <seq>
//	event: <state|superstep>
//	data: <obs.JobEvent JSON>
//
// so consumers can spot gaps (a slow reader may miss events between
// the replay and the live tail) from the id sequence.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	replay, live, cancel, err := s.mgr.Events(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "event streaming requires a flushing response writer")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	write := func(ev obs.JobEvent) bool {
		data, merr := json.Marshal(ev)
		if merr != nil {
			return false
		}
		if _, werr := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); werr != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	for {
		select {
		case ev, open := <-live:
			if !open {
				return // terminal state delivered: stream complete
			}
			if !write(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
