package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json at the repo root
// repeats this table for the driver; smoke_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the numbers a graphd caller sees; the same six on every
// workload. error_share of the issue is carried by the result line's
// failed/attempted pair instead: the driver wants metrics that are never 0.
//
// The timing bounds are the widest the driver allows. On the 2-vCPU
// reference VM the same job's median wanders ±10 % over minutes whatever
// the window length or estimator (README, "Noise"), and a bound has to
// stay above the spread of ten runs. net_mb_per_job is exact for a seed;
// its bound covers seeds on which S-V needs one more iteration (+19 %
// bytes on one seed in twenty).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_wall_s", "s", "lower", 0.25},
	{"job_wall_ms_p50", "ms", "lower", 0.25},
	{"job_wall_ms_p90", "ms", "lower", 0.25},
	{"net_mb_per_job", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

var planes = []string{"hub", "p2p", "p2p-adaptive"}

// perLayer lists the traced pass's numbers, layer = module name.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	out := []metricDef{
		lo("graph.generate_ms", "ms"),
		lo("graph.snapshot_write_ms", "ms"),
		lo("graph.snapshot_read_ms", "ms"),
		lo("graph.snapshot_mb", "MB"),
		lo("partition.hash_ms", "ms"),
		lo("partition.edge_cut", "ratio"),
		lo("frag.build_ms", "ms"),
		lo("frag.mb", "MB"),
		lo("catalog.cold_get_ms", "ms"),
		lo("catalog.acquire_view_us", "us"),
		hi("ser.encode_mb_s", "MB/s"),
		hi("ser.decode_mb_s", "MB/s"),
		lo("comm.inproc_round_us", "us"),
		lo("barrier.crossing_ns", "ns"),
		lo("barrier.allreduce_ns", "ns"),
		lo("engine.run_ms", "ms"),
		lo("engine.compute_ms", "ms"),
		lo("engine.barrier_wait_ms", "ms"),
		lo("engine.exchange_residual_ms", "ms"),
		lo("engine.supersteps", "count"),
		lo("engine.rounds", "count"),
		lo("engine.us_per_round", "us"),
		lo("engine.alloc_mb", "MB"),
		lo("engine.allocs_k", "count"),
		lo("channel.payload_mb", "MB"),
		lo("channel.envelope_share", "ratio"),
	}
	for _, p := range planes {
		out = append(out, lo("netcomm."+p+".round_us", "us"))
	}
	out = append(out,
		lo("netcomm.hub.relay_kb_per_round", "kB"),
		lo("netcomm.p2p-adaptive.relay_kb_per_round", "kB"),
		lo("netcomm.p2p.window_mb", "MB"),
		lo("netcomm.p2p-adaptive.window_mb", "MB"),
		lo("workerproc.run_ms", "ms"),
		lo("workerproc.spawn_ms", "ms"),
		lo("workerproc.supersteps_ms", "ms"),
		lo("workerproc.lifecycle_ms", "ms"),
	)
	for _, p := range planes {
		out = append(out, lo("workerproc."+p+".job_ms_p50", "ms"))
	}
	for _, p := range planes {
		out = append(out, lo("workerproc."+p+".hung_jobs", "count"))
	}
	out = append(out,
		lo("jobs.queue_wait_ms", "ms"),
		lo("jobs.run_ms", "ms"),
		lo("jobs.overhead_ms", "ms"),
		lo("server.submit_ms", "ms"),
		lo("server.poll_ms", "ms"),
		lo("server.polls_per_job", "count"),
		lo("server.result_page_ms", "ms"),
		lo("server.result_full_ms", "ms"),
		lo("server.result_full_mb", "MB"),
	)
	for _, r := range fidelityRows {
		out = append(out, lo("harness."+r.name+"_ratio", "ratio"))
	}
	out = append(out,
		lo("harness.rows_violated", "count"),
		lo("harness.bytes_rows_violated", "count"),
		lo("trace.job_ms_p50", "ms"),
		lo("trace.residual_share", "ratio"),
		lo("trace.overhead_pct", "%"),
	)
	return out
}

// tally counts the operations of a run whose outcome was checked and
// keeps the first few failure messages.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

func (t *tally) op(err error) {
	t.Attempted++
	if err != nil {
		t.Failed++
		if len(t.Errors) < 8 {
			t.Errors = append(t.Errors, err.Error())
		}
	}
}

// measured is one reported value; the unit travels with it so the
// result line needs no second lookup.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns raw values into the result map in table order and
// reports the names the measurement forgot.
func collect(defs []metricDef, vals map[string]float64) (map[string]measured, []string) {
	out := make(map[string]measured, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
