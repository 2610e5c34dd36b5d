package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/catalog"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workerproc"
)

const (
	maxSupersteps = 200000 // the job manager's default cap
	// sweepDeadline is the WallTimeout of every workerproc job the traced
	// pass runs. The jobs take well under half a second, so anything still
	// running after 5 s is hung; the end-to-end client's 15 s would cost
	// the traced pass too much of its run when a plane does hang.
	sweepDeadline = 5 * time.Second
)

// target is one job type on one loaded dataset: the workload's own, or
// the plane sweep's.
type target struct {
	entry   *catalog.Entry
	spec    *algorithms.Spec
	eng     algorithms.Engine
	variant string
	params  algorithms.Params
	orc     *oracle
}

// own is the workload's job on the workload's dataset.
func (r *layerRun) own() target {
	return target{r.entry, r.spec, r.eng, r.w.req.Variant, r.w.req.Params, r.orc}
}

// acquire is the traced per-job view acquisition every replay starts with.
func (r *layerRun) acquire(t target, parent int, job string) (*catalog.View, func(), error) {
	var view *catalog.View
	var release func()
	var err error
	r.tr.timed(parent, job, "catalog.acquire_view", func() {
		view, release, _, err = t.entry.AcquireView("", t.spec.NeedsUndirected)
	})
	return view, release, err
}

// replayEngine runs the workload's job straight on the engine, the way
// the job manager's in-process path does: an in-process fabric, the
// catalog's fragments, a bench-owned observer. Whatever the workload's
// placement, this is the engine's own cost with no transport under it.
func (r *layerRun) replayEngine() error {
	var runMS, computeMS, waitMS, allocMB, allocsK []float64
	for i := 0; i < r.p.traceJobs; i++ {
		job := fmt.Sprintf("engine-%03d", i)
		root, done := r.tr.open(0, job, "direct")
		view, release, err := r.acquire(r.own(), root, job)
		if err != nil {
			return err
		}
		trace := obs.NewTrace(view.Part.NumWorkers())
		opts := algorithms.Options{Part: view.Part, Frags: view.Frags, MaxSupersteps: maxSupersteps,
			Observer: trace, Fabric: comm.NewInProc(view.Part.NumWorkers(), comm.CostModel{})}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res *algorithms.Result
		d := r.tr.timed(root, job, "engine.run", func() {
			res, err = r.spec.Run(r.eng, r.w.req.Variant, view.Graph, opts, r.w.req.Params)
		})
		runtime.ReadMemStats(&after)
		release()
		done()
		if err == nil {
			err = r.orc.checkResult(res)
		}
		r.op(err)
		if err != nil {
			continue
		}
		compute, wait, payload, sent := stepTotals(trace.Samples(), view.Part.NumWorkers())
		runMS = append(runMS, ms(d))
		computeMS = append(computeMS, ms(compute))
		waitMS = append(waitMS, ms(wait))
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		allocsK = append(allocsK, float64(after.Mallocs-before.Mallocs)/1e3)
		// counts are the same for every job of a seed
		r.set("engine.supersteps", float64(res.Metrics.Supersteps))
		r.set("engine.rounds", float64(res.Metrics.Rounds))
		r.set("channel.payload_mb", float64(payload)/1e6)
		r.set("channel.envelope_share", float64(sent-payload)/float64(max(sent, 1)))
	}
	run := median(runMS)
	r.set("engine.run_ms", run)
	r.set("engine.compute_ms", median(computeMS))
	r.set("engine.barrier_wait_ms", median(waitMS))
	// what is left is serialize + flush + deserialize: the engine does
	// not time them yet
	r.set("engine.exchange_residual_ms", run-median(computeMS)-median(waitMS))
	r.set("engine.us_per_round", run*1e3/max(r.vals["engine.rounds"], 1))
	r.set("engine.alloc_mb", median(allocMB))
	r.set("engine.allocs_k", median(allocsK))
	return nil
}

// stepTotals folds a run's samples into the time the slowest worker
// computed and the mean time workers waited at barriers, summed over
// supersteps, plus the channel payload and total bytes sent.
func stepTotals(samples []obs.SuperstepSample, workers int) (compute, wait time.Duration, payload, sent int64) {
	maxCompute := map[int]int64{}
	var waitNS int64
	for _, s := range samples {
		maxCompute[s.Superstep] = max(maxCompute[s.Superstep], s.ComputeNS)
		waitNS += s.BarrierWaitNS
		sent += s.BytesSent
		for _, c := range s.Channels {
			payload += c.BytesSent
		}
	}
	var computeNS int64
	for _, ns := range maxCompute {
		computeNS += ns
	}
	return time.Duration(computeNS), time.Duration(waitNS / int64(workers)), payload, sent
}

// distJob is one job through internal/workerproc the way the job
// manager's distributed path runs it: export the view, spawn, run, merge,
// tear the directory down.
type distJob struct {
	run, spawn, supersteps time.Duration
	err                    error
}

func (r *layerRun) distJob(t target, plane, job string) distJob {
	root, done := r.tr.open(0, job, "direct")
	defer done()
	view, release, err := r.acquire(t, root, job)
	if err != nil {
		return distJob{err: err}
	}
	defer release()
	dir, err := os.MkdirTemp("", "graphbench-job")
	if err != nil {
		return distJob{err: err}
	}
	defer r.tr.timed(root, job, "teardown", func() { os.RemoveAll(dir) })
	snap := filepath.Join(dir, "view.bin")
	r.tr.timed(root, job, "graph.snapshot_write", func() {
		err = graph.WriteSnapshotFile(snap, view.Graph, []graph.Placement{{
			Name: view.Placement, Workers: view.Part.NumWorkers(), Owner: view.Part.Owners()}})
	})
	if err != nil {
		return distJob{err: err}
	}
	var stepNS atomic.Int64 // steps complete on the hub's connection goroutines
	trace := obs.NewTrace(view.Part.NumWorkers())
	trace.OnStepComplete(func(ev obs.StepEvent) { stepNS.Add(ev.WallNS) })
	var spawned time.Time
	spec := workerproc.JobSpec{
		Bin:          filepath.Join(r.l.bin, "graphworker"),
		SnapshotPath: snap, Placement: view.Placement, Part: view.Part,
		Procs: 2, DataPlane: plane,
		Algorithm: t.spec.Name, Engine: t.eng, Variant: t.variant, Params: t.params,
		MaxSupersteps: maxSupersteps, WallTimeout: sweepDeadline, Trace: trace,
		Spawned: func([]int) { spawned = time.Now() },
	}
	id, runDone := r.tr.open(root, job, "workerproc.run")
	start := time.Now()
	res, err := workerproc.Run(spec)
	end := time.Now()
	runDone()
	if spawned.IsZero() {
		spawned = end
	}
	r.tr.add(id, job, "workerproc.spawn", start, spawned)
	if err == nil {
		err = t.orc.checkResult(res)
	}
	return distJob{run: end.Sub(start), spawn: spawned.Sub(start),
		supersteps: time.Duration(stepNS.Load()), err: err}
}

// replayWorkerproc runs the workload's job across two worker processes
// on the hub plane (graphd's default) for the lifecycle split.
func (r *layerRun) replayWorkerproc() error {
	var runMS, spawnMS, stepsMS []float64
	for i := 0; i < r.p.traceJobs/2; i++ {
		j := r.distJob(r.own(), planes[0], fmt.Sprintf("%s-%03d", planes[0], i))
		r.op(j.err)
		if j.err == nil {
			runMS = append(runMS, ms(j.run))
			spawnMS = append(spawnMS, ms(j.spawn))
			stepsMS = append(stepsMS, ms(j.supersteps))
		}
	}
	if len(runMS) == 0 {
		return fmt.Errorf("no workerproc job of the workload finished")
	}
	r.set("workerproc.run_ms", median(runMS))
	r.set("workerproc.spawn_ms", median(spawnMS))
	r.set("workerproc.supersteps_ms", median(stepsMS))
	r.set("workerproc.lifecycle_ms", median(runMS)-median(stepsMS))
	return nil
}

// sweepPlanes runs the pilot's hang recipe — pagerank/scatter on
// rmat:scale=16,ef=16 across two worker processes — a few times on every
// data plane, whatever the workload: at the workloads' scale 14 the p2p
// planes have not hung once in 300 jobs, at 16 they do within tens. A
// job that outlives sweepDeadline is counted in hung_jobs and ends that
// plane's sweep (each costs the deadline plus the coordinator's kill
// grace). On the planes graphd does not default to, a hang is a finding,
// not a failure of the benchmark, whose workloads do not run there.
func (r *layerRun) sweepPlanes() error {
	scale := 16
	if r.p.smoke {
		scale = smokeScale
	}
	gen := fmt.Sprintf("rmat:scale=%d,ef=16,seed=%d", scale, r.res.Seed)
	if err := r.cat.Register(catalog.Spec{Name: "sweep", Gen: gen}); err != nil {
		return err
	}
	entry, err := r.cat.Get("sweep")
	if err != nil {
		return err
	}
	req := jobs.Request{Algorithm: "pagerank", Variant: "scatter"}
	spec, _ := algorithms.Lookup(req.Algorithm) // registered at init
	orc, err := newOracle(entry.Graph, req, r.res.Seed)
	if err != nil {
		return err
	}
	t := target{entry: entry, spec: spec, eng: algorithms.EngineChannel, variant: req.Variant, orc: orc}
	for _, plane := range planes {
		var runMS []float64
		hung := 0
		for i := 0; i < r.p.sweepJobs && hung == 0; i++ {
			j := r.distJob(t, plane, fmt.Sprintf("sweep-%s-%03d", plane, i))
			if j.err == nil {
				r.op(nil)
				runMS = append(runMS, ms(j.run))
				continue
			}
			timedOut := j.run >= sweepDeadline
			if timedOut {
				hung++
			}
			if !timedOut || plane == planes[0] {
				r.op(fmt.Errorf("plane sweep %s: %w", plane, j.err))
			}
		}
		// a plane that hung on its first job has no median; its own
		// deadline is the honest lower bound
		p50 := ms(sweepDeadline)
		if len(runMS) > 0 {
			p50 = median(runMS)
		}
		r.set("workerproc."+plane+".job_ms_p50", p50)
		r.set("workerproc."+plane+".hung_jobs", float64(hung))
	}
	return nil
}

// call serves one request on the handler in-process and times it.
func call(h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, time.Time, time.Time) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec, start, time.Now()
}

// serviceJob is what one job through the job manager and the HTTP
// handlers cost, layer by layer.
type serviceJob struct {
	id                                           string
	wall, submit, page, queueWait, run, overhead time.Duration
	polls                                        []time.Duration
}

// serviceOnce is the end-to-end client's loop against an in-process
// handler: submit, poll, fetch the result window. With a tracer it
// records a "job" root span and a child per call, plus the manager's own
// queue-wait and run intervals from the job's timestamps.
func (r *layerRun) serviceOnce(h http.Handler, tr *tracer, body []byte, i int) (serviceJob, error) {
	job := fmt.Sprintf("job-%03d", i)
	var sj serviceJob
	root, done := tr.open(0, job, "job")
	begin := time.Now()
	rec, start, end := call(h, http.MethodPost, "/v1/jobs", body)
	tr.add(root, job, "server.submit", start, end)
	sj.submit = end.Sub(start)
	var snap jobs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || rec.Code != http.StatusAccepted {
		done()
		return sj, fmt.Errorf("submit: status %d (%v)", rec.Code, err)
	}
	sj.id = snap.ID
	for !snap.State.Terminal() {
		if time.Since(begin) > jobDeadline {
			done()
			call(h, http.MethodDelete, "/v1/jobs/"+snap.ID, nil)
			return sj, fmt.Errorf("job %s passed the %s deadline", snap.ID, jobDeadline)
		}
		time.Sleep(pollEvery)
		rec, start, end = call(h, http.MethodGet, "/v1/jobs/"+snap.ID, nil)
		tr.add(root, job, "server.poll", start, end)
		sj.polls = append(sj.polls, end.Sub(start))
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			done()
			return sj, err
		}
	}
	path := fmt.Sprintf("/v1/jobs/%s/result?offset=%d&limit=%d", snap.ID, r.orc.window(i), windowSize)
	rec, start, end = call(h, http.MethodGet, path, nil)
	tr.add(root, job, "server.result_page", start, end)
	done()
	sj.page, sj.wall = end.Sub(start), end.Sub(begin)
	tr.add(root, job, "jobs.queue_wait", snap.Submitted, snap.Started)
	tr.add(root, job, "jobs.run", snap.Started, snap.Finished)
	if snap.State != jobs.StateDone {
		return sj, fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	var page resultPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		return sj, err
	}
	sj.queueWait, sj.run = snap.Started.Sub(snap.Submitted), snap.Finished.Sub(snap.Started)
	sj.overhead = sj.run - page.Metrics.WallTime
	return sj, r.orc.check(&page, min(windowSize, r.orc.vertices()))
}

// replayService drives the workload's jobs through an in-process job
// manager configured like the workload's graphd, behind the real HTTP
// handlers. Every job runs twice, once traced and once not; the gap
// between the two medians is what recording spans costs.
func (r *layerRun) replayService() error {
	var opts []jobs.Option
	opts = append(opts, jobs.WithRetention(retainJobs), jobs.WithMetrics(obs.NewRegistry()))
	if r.w.workerProcs > 0 {
		opts = append(opts, jobs.WithWorkerProcs(r.w.workerProcs, filepath.Join(r.l.bin, "graphworker")))
	}
	mgr := jobs.NewManager(r.cat, 0, opts...)
	defer mgr.Close()
	h := server.New(r.cat, mgr).Handler()
	body, err := json.Marshal(r.w.req)
	if err != nil {
		return err
	}
	var traced, untraced, submit, poll, page, queueWait, run, overhead []float64
	polls, last := 0, ""
	for i := 0; i < r.p.traceJobs; i++ {
		sj, err := r.serviceOnce(h, r.tr, body, i)
		r.op(err)
		if err != nil {
			continue
		}
		traced = append(traced, ms(sj.wall))
		submit = append(submit, ms(sj.submit))
		page = append(page, ms(sj.page))
		queueWait = append(queueWait, ms(sj.queueWait))
		run = append(run, ms(sj.run))
		overhead = append(overhead, ms(sj.overhead))
		for _, p := range sj.polls {
			poll = append(poll, ms(p))
		}
		polls += len(sj.polls)
		last = sj.id

		sj, err = r.serviceOnce(h, nil, body, i)
		r.op(err)
		if err == nil {
			untraced = append(untraced, ms(sj.wall))
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return fmt.Errorf("no job finished through the job manager")
	}
	// the last traced job is still retained: fetch its whole result
	rec, start, end := call(h, http.MethodGet, "/v1/jobs/"+last+"/result", nil)
	var whole resultPage
	err = json.Unmarshal(rec.Body.Bytes(), &whole)
	if err == nil {
		err = r.orc.check(&whole, r.orc.vertices())
	}
	r.op(err)
	r.set("server.result_full_ms", ms(end.Sub(start)))
	r.set("server.result_full_mb", float64(rec.Body.Len())/1e6)

	r.set("jobs.queue_wait_ms", median(queueWait))
	r.set("jobs.run_ms", median(run))
	r.set("jobs.overhead_ms", median(overhead))
	r.set("server.submit_ms", median(submit))
	r.set("server.poll_ms", median(poll))
	r.set("server.polls_per_job", float64(polls)/float64(len(traced)))
	r.set("server.result_page_ms", median(page))
	r.set("trace.job_ms_p50", median(traced))
	r.set("trace.overhead_pct", (median(traced)-median(untraced))/median(untraced)*100)
	return nil
}
