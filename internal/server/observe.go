package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// getReport serves GET /v1/jobs/{id}/report: the jobs.Report of the
// job's trace, flow matrix and diagnosis.
func (s *Server) getReport(w http.ResponseWriter, r *http.Request) {
	rep, err := s.mgr.Report(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
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
