// Package server exposes the job service over HTTP/JSON — the graphd
// API. All endpoints live under /v1:
//
//	POST   /v1/jobs                  submit {algorithm, dataset, engine, variant, params}
//	GET    /v1/jobs                  list retained jobs
//	GET    /v1/jobs/{id}             job status + metrics
//	GET    /v1/jobs/{id}/result      per-vertex output (paging: ?offset=&limit=)
//	DELETE /v1/jobs/{id}             cancel a job (queued: immediate; running: aborted)
//	GET    /v1/datasets              catalog contents
//	GET    /v1/datasets/{name}       dataset detail: views, edge cuts, live epoch stats
//	POST   /v1/datasets/{name}/edges ingest an edge batch into a live dataset
//	                                 (JSON {inserts, deletes} or text edge-list body;
//	                                 ?compact=now forces a synchronous compaction)
//	GET    /v1/jobs/{id}/report      job telemetry: superstep timeline, flow matrix
//	                                 and bottleneck diagnosis from one snapshot (JSON)
//	GET    /v1/jobs/{id}/events      live job event stream (SSE: states + supersteps)
//	GET    /v1/algorithms            registry contents
//	GET    /v1/healthz               liveness
//	GET    /metrics                  Prometheus text exposition (catalog, jobs, runtime)
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/catalog"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/live"
	"repro/internal/netcomm"
	"repro/internal/obs"
)

// Server binds the catalog and job manager to an http.Handler.
type Server struct {
	cat     *catalog.Catalog
	mgr     *jobs.Manager
	reg     *obs.Registry
	mux     *http.ServeMux
	version string
	started time.Time
}

// Option tweaks a Server.
type Option func(*Server)

// WithRegistry serves reg at GET /metrics instead of a private empty
// registry — pass the registry the job manager's instruments live on so
// one scrape covers everything.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Server) {
		if reg != nil {
			s.reg = reg
		}
	}
}

// WithVersion stamps the build version label on graphd_build_info
// (default "dev").
func WithVersion(v string) Option {
	return func(s *Server) {
		if v != "" {
			s.version = v
		}
	}
}

// New builds a server over an existing catalog and manager (both owned
// by the caller; the server never closes them).
func New(cat *catalog.Catalog, mgr *jobs.Manager, opts ...Option) *Server {
	s := &Server{cat: cat, mgr: mgr, mux: http.NewServeMux(),
		version: "dev", started: time.Now()}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.reg.OnScrape(s.scrape)
	s.mux.HandleFunc("POST /v1/jobs", s.submitJob)
	s.mux.HandleFunc("GET /v1/jobs", s.listJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.getResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.getReport)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.streamEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancelJob)
	s.mux.HandleFunc("GET /v1/datasets", s.listDatasets)
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.datasetDetail)
	s.mux.HandleFunc("POST /v1/datasets/{name}/edges", s.ingestEdges)
	s.mux.HandleFunc("GET /v1/algorithms", s.listAlgorithms)
	s.mux.HandleFunc("GET /v1/healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

type errorPayload struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorPayload{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var req jobs.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	snap, err := s.mgr.Submit(req)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "queue full") || strings.Contains(err.Error(), "shut down") {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	writeJSON(w, http.StatusAccepted, snap)
}

// listJobs lists retained jobs, oldest first. Query parameters:
// ?state= filters by lifecycle state, ?offset=/&limit= window the
// matches (job lists are otherwise unbounded); "total" counts matches
// before windowing.
func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	state, err := jobs.ParseState(r.URL.Query().Get("state"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	offset, limit, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	list, total := s.mgr.ListPage(state, offset, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":   list,
		"total":  total,
		"offset": offset,
	})
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or expired job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// cancelJob cancels queued or running jobs. A running job aborts
// cooperatively, so the snapshot in the response may still say
// "running" for an instant; poll it to observe the terminal state.
func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Cancel(id); err != nil {
		status := http.StatusConflict
		if strings.Contains(err.Error(), "unknown") {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	snap, _ := s.mgr.Get(id)
	writeJSON(w, http.StatusOK, snap)
}

// resultPayload is the JSON shape of GET /v1/jobs/{id}/result. Exactly
// one of Labels/Ranks/Dists/MSF is set, mirroring algorithms.Result;
// vertex-indexed arrays are windowed by offset/limit.
type resultPayload struct {
	ID       string             `json:"id"`
	Kind     string             `json:"kind"`
	Vertices int                `json:"vertices"`
	Offset   int                `json:"offset"`
	Labels   []graph.VertexID   `json:"labels,omitempty"`
	Ranks    []float64          `json:"ranks,omitempty"`
	Dists    []int64            `json:"dists,omitempty"`
	MSF      *msfPayload        `json:"msf,omitempty"`
	Metrics  algorithms.Metrics `json:"metrics"`
}

type msfPayload struct {
	Weight    int64            `json:"weight"`
	EdgeCount int              `json:"edge_count"`
	Comp      []graph.VertexID `json:"comp,omitempty"`
}

func (s *Server) getResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := s.mgr.Result(id)
	if err != nil {
		// 404 only for jobs the manager no longer knows; a job that
		// exists but has no result (pending, running, failed, cancelled)
		// is a conflict, not a missing resource.
		status := http.StatusConflict
		if _, ok := s.mgr.Get(id); !ok {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	offset, limit, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p := resultPayload{ID: id, Kind: res.Kind(), Metrics: res.Metrics}
	switch p.Kind {
	case "labels":
		p.Vertices = len(res.Labels)
		p.Offset, p.Labels = window(res.Labels, offset, limit)
	case "ranks":
		p.Vertices = len(res.Ranks)
		p.Offset, p.Ranks = window(res.Ranks, offset, limit)
	case "dists":
		p.Vertices = len(res.Dists)
		p.Offset, p.Dists = window(res.Dists, offset, limit)
	case "msf":
		p.Vertices = len(res.MSF.Comp)
		m := &msfPayload{Weight: res.MSF.Weight, EdgeCount: len(res.MSF.Edges)}
		p.Offset, m.Comp = window(res.MSF.Comp, offset, limit)
		p.MSF = m
	}
	writeJSON(w, http.StatusOK, p)
}

// pageParams parses ?offset= and ?limit= (limit 0 = everything).
func pageParams(r *http.Request) (offset, limit int, err error) {
	q := r.URL.Query()
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("bad offset %q", v)
		}
	}
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("bad limit %q", v)
		}
	}
	return offset, limit, nil
}

func window[T any](xs []T, offset, limit int) (int, []T) {
	if offset > len(xs) {
		offset = len(xs)
	}
	out := xs[offset:]
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return offset, out
}

func (s *Server) listDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.cat.List()})
}

func (s *Server) datasetDetail(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, err := s.cat.DetailOf(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// ingestPayload is the JSON body of POST /v1/datasets/{name}/edges.
type ingestPayload struct {
	Inserts []ingestEdge `json:"inserts"`
	Deletes []ingestEdge `json:"deletes"`
}

type ingestEdge struct {
	Src    graph.VertexID `json:"src"`
	Dst    graph.VertexID `json:"dst"`
	Weight int32          `json:"weight,omitempty"`
}

// ingestResponse reports where the batch landed.
type ingestResponse struct {
	Dataset  string     `json:"dataset"`
	Inserts  int        `json:"inserts"`
	Deletes  int        `json:"deletes"`
	Live     live.Stats `json:"live"`
	Compacts bool       `json:"compacted,omitempty"` // ?compact=now ran
}

// ingestEdges appends one edge batch to a live dataset's delta log. The
// body is JSON ({"inserts": [{"src","dst","weight"}...], "deletes":
// [...]}) when the Content-Type says so, otherwise the text edge-list
// format ("src dst [weight]" inserts, "- src dst" deletes). Ingesting
// into an unloaded dataset loads it first.
func (s *Server) ingestEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	spec, ok := s.cat.SpecOf(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	if !spec.Mutable {
		// rejected from the spec alone — a bad ingest request must not
		// trigger an expensive load (and possible evictions) for nothing
		writeError(w, http.StatusConflict, "dataset %q is immutable (register it with mutable: true)", name)
		return
	}
	entry, err := s.cat.Get(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	lg := entry.Live()
	if lg == nil {
		writeError(w, http.StatusConflict, "dataset %q is immutable (register it with mutable: true)", name)
		return
	}
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	var batch live.Batch
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var p ingestPayload
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		batch.Ops = make([]live.Op, 0, len(p.Inserts)+len(p.Deletes))
		for _, e := range p.Inserts {
			batch.Ops = append(batch.Ops, live.Op{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
		}
		for _, e := range p.Deletes {
			batch.Ops = append(batch.Ops, live.Op{Src: e.Src, Dst: e.Dst, Del: true})
		}
	} else {
		if batch, err = live.ParseTextBatch(body); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
	}
	ins, del := 0, 0
	for _, op := range batch.Ops {
		if op.Del {
			del++
		} else {
			ins++
		}
	}
	if err := lg.Apply(batch); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := ingestResponse{Dataset: name, Inserts: ins, Deletes: del}
	if r.URL.Query().Get("compact") == "now" {
		lg.CompactNow()
		resp.Compacts = true
	}
	resp.Live = lg.Stats()
	writeJSON(w, http.StatusOK, resp)
}

// algorithmPayload is one registry entry in GET /v1/algorithms.
type algorithmPayload struct {
	Name            string              `json:"name"`
	Description     string              `json:"description"`
	NeedsUndirected bool                `json:"needs_undirected,omitempty"`
	NeedsWeights    bool                `json:"needs_weights,omitempty"`
	HasIterations   bool                `json:"has_iterations,omitempty"`
	HasSource       bool                `json:"has_source,omitempty"`
	Variants        map[string][]string `json:"variants"`
}

func (s *Server) listAlgorithms(w http.ResponseWriter, r *http.Request) {
	specs := algorithms.Registry()
	out := make([]algorithmPayload, 0, len(specs))
	for _, spec := range specs {
		p := algorithmPayload{
			Name:            spec.Name,
			Description:     spec.Description,
			NeedsUndirected: spec.NeedsUndirected,
			NeedsWeights:    spec.NeedsWeights,
			HasIterations:   spec.HasIterations,
			HasSource:       spec.HasSource,
			Variants:        map[string][]string{},
		}
		for _, eng := range spec.Engines() {
			p.Variants[string(eng)] = spec.Variants(eng)
		}
		out = append(out, p)
	}
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": out})
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metrics serves the registry in the Prometheus text exposition format;
// the scrape hook below folds the catalog, job-manager, live-graph and
// Go runtime gauges in next to the registered instruments.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// scrape emits the point-in-time gauges that live on the daemon's own
// components rather than in registry instruments.
func (s *Server) scrape(e *obs.Emitter) {
	e.Gauge("graphd_build_info", "Build metadata; the value is always 1.", 1,
		"version", s.version, "go_version", runtime.Version())
	e.Gauge("graphd_uptime_seconds", "Seconds since this server was constructed.",
		time.Since(s.started).Seconds())

	cs := s.cat.Stats()
	e.Gauge("graphd_catalog_datasets", "Registered datasets.", float64(cs.Datasets))
	e.Gauge("graphd_catalog_loaded", "Datasets resident in memory.", float64(cs.Loaded))
	e.Counter("graphd_catalog_loads_total", "Dataset loads (cold or after eviction).", float64(cs.Loads))
	e.Counter("graphd_catalog_hits_total", "Dataset lookups served from memory.", float64(cs.Hits))
	e.Counter("graphd_catalog_evictions_total", "Datasets evicted under memory pressure.", float64(cs.Evictions))
	e.Gauge("graphd_catalog_bytes", "Estimated bytes of resident datasets.", float64(cs.Bytes))
	e.Gauge("graphd_catalog_max_bytes", "Resident-bytes budget of the catalog (0 = unbounded).", float64(cs.MaxBytes))

	js := s.mgr.Stats()
	e.Gauge("graphd_job_workers", "Job-manager pool size: jobs that can run at once.", float64(js.Workers))
	e.Gauge("graphd_jobs", "Retained jobs by lifecycle state.", float64(js.Pending), "state", "pending")
	e.Gauge("graphd_jobs", "Retained jobs by lifecycle state.", float64(js.Running), "state", "running")
	e.Gauge("graphd_jobs", "Retained jobs by lifecycle state.", float64(js.Recovering), "state", "recovering")
	e.Gauge("graphd_jobs", "Retained jobs by lifecycle state.", float64(js.Done), "state", "done")
	e.Gauge("graphd_jobs", "Retained jobs by lifecycle state.", float64(js.Failed), "state", "failed")
	e.Gauge("graphd_jobs", "Retained jobs by lifecycle state.", float64(js.Cancelled), "state", "cancelled")
	e.Counter("graphd_jobs_submitted_total", "Jobs ever submitted.", float64(js.Submitted))
	e.Counter("graphd_jobs_evicted_total", "Terminal jobs dropped by retention.", float64(js.Evicted))

	// data-plane memory: bytes held in the buffers of this process's hubs
	e.Gauge("graphd_hub_buffered_bytes", "Bytes held in hub connection buffers and data-relay staging.", float64(netcomm.DataPlaneStats()))

	// live datasets: compaction progress per mutable dataset
	for _, info := range s.cat.List() {
		d, err := s.cat.DetailOf(info.Spec.Name)
		if err != nil || d.Live == nil {
			continue
		}
		ls := *d.Live
		name := info.Spec.Name
		e.Gauge("graphd_live_epoch", "Current epoch of a live dataset.", float64(ls.Epoch), "dataset", name)
		e.Gauge("graphd_live_pending_ops", "Edge ops waiting for compaction.", float64(ls.PendingOps), "dataset", name)
		e.Counter("graphd_live_compactions_total", "Delta-log compactions run.", float64(ls.Compactions), "dataset", name)
		e.Counter("graphd_live_retired_epochs_total", "Epochs retired after their last pin.", float64(ls.RetiredEpochs), "dataset", name)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Gauge("go_heap_alloc_bytes", "Live heap bytes.", float64(ms.HeapAlloc))
	e.Gauge("go_heap_sys_bytes", "Heap bytes obtained from the OS.", float64(ms.HeapSys))
	e.Counter("go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	e.Gauge("go_goroutines", "Currently live goroutines.", float64(runtime.NumGoroutine()))
}
