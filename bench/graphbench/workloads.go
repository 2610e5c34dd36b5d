package main

import (
	"fmt"
	"time"

	"repro/internal/jobs"
)

// simWorkers is graphd's -sim-workers on every workload: on the 2-core
// reference box one 4-worker job already fills the machine, which is why
// the client is a single closed loop.
const simWorkers = 4

// workload is one fixed job type driven against one graphd configuration.
type workload struct {
	Name string
	Why  string
	// dataset is the catalog name, gen its generator with %d for the
	// scale and the seed appended by genExpr.
	dataset string
	gen     string
	scale   int
	req     jobs.Request
	// workerProcs > 0 starts graphd with -worker-procs and no
	// -data-plane flag, so the workload follows whatever plane graphd
	// defaults to.
	workerProcs int
}

// Scales are two below the issue's pilot (16/17): the driver allows a
// run about 35 s including set-up, and ≥100 measured jobs per run matter
// more than graph size. The social graph has edge factor 6, not the
// pilot's 3: at 3 the composed S-V needs 19 supersteps instead of 16 on
// about one seed in six, at 6 on one in twenty, and a workload should be
// the same work on every seed.
const (
	webScale    = 14
	socialScale = 15
	smokeScale  = 10
)

var workloads = []workload{
	{
		Name:    "pr-scatter-inproc",
		Why:     "few fat supersteps in-process: compute and scatter-combine (de)serialize dominate, lifecycle and netcomm are bypassed",
		dataset: "web", gen: "rmat:scale=%d,ef=16", scale: webScale,
		req: jobs.Request{Algorithm: "pagerank", Engine: "channel", Variant: "scatter", Dataset: "web"},
	},
	{
		Name:    "sv-compose-inproc",
		Why:     "many thin rounds of the composed reqresp+scatter S-V: per-round fixed cost dominates, bandwidth gains should not move it",
		dataset: "social", gen: "social:scale=%d,ef=6", scale: socialScale,
		req: jobs.Request{Algorithm: "sv", Engine: "channel", Variant: "both", Dataset: "social"},
	},
	{
		Name:    "pr-scatter-dist",
		Why:     "the pr-scatter-inproc job across 2 worker processes on the default data plane: the difference is socket exchange plus job lifecycle",
		dataset: "web", gen: "rmat:scale=%d,ef=16", scale: webScale,
		req:         jobs.Request{Algorithm: "pagerank", Engine: "channel", Variant: "scatter", Dataset: "web"},
		workerProcs: 2,
	},
	{
		Name:    "wcc-prop-dist",
		Why:     "2-superstep propagation WCC across 2 worker processes: snapshot export, spawn, reload, join and merge dominate, exchange rounds are bypassed",
		dataset: "web", gen: "rmat:scale=%d,ef=16", scale: webScale,
		req:         jobs.Request{Algorithm: "wcc", Engine: "channel", Variant: "propagation", Dataset: "web"},
		workerProcs: 2,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// genExpr is the workload's dataset generator for one seed.
func (w workload) genExpr(p params, seed int64) string {
	scale := w.scale
	if p.smoke {
		scale = smokeScale
	}
	return fmt.Sprintf(w.gen+",seed=%d", scale, seed)
}

// params sizes a run; smoke shrinks everything so the whole benchmark
// fits in a test.
type params struct {
	smoke  bool
	window time.Duration // measured window of the end-to-end pass
	// limit ends a window that has not seen minJobs jobs yet, so a slow
	// build still answers within the driver's per-run cap.
	limit   time.Duration
	minJobs int // measured jobs a run wants at least
	warmup  int // unmeasured jobs before the window opens
	setups  int // graphd starts per run; setup_s is their median

	traceJobs   int // jobs replayed through each traced path
	sweepJobs   int // plane-sweep jobs per data plane
	netRounds   int // netcomm exchange rounds per plane
	microRounds int // ser/comm/barrier repetitions
	fidelity    int // harness passes; the ratio rows take the median
}

func fullParams(seconds float64) params {
	window := time.Duration(seconds * float64(time.Second))
	return params{window: window, limit: 2 * window, minJobs: 100, warmup: 5, setups: 3,
		traceJobs: 20, sweepJobs: 5, netRounds: 2000, microRounds: 2000, fidelity: 3}
}

func smokeParams() params {
	return params{smoke: true, limit: 10 * time.Second, minJobs: 6, warmup: 1, setups: 1,
		traceJobs: 4, sweepJobs: 2, netRounds: 50, microRounds: 50, fidelity: 1}
}
