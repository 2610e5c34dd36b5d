// Command graphbench is the repo's end-to-end and per-layer benchmark.
//
// The end-to-end pass starts a real graphd subprocess per workload and
// drives it over loopback HTTP from one closed-loop client; the traced
// pass replays the same jobs through the layers' public functions inside
// this process, with a span around every call. See ../README.md for the
// metric and workload dictionary.
//
//	graphbench -seed N [-runs K] [-out file.json]   all workloads + traced pass
//	graphbench -workload W -seed N -seconds S -trace 0|1   one run, one JSON result line (BENCHMARK.json)
//	graphbench -smoke                               tiny graphs, everything once, a few seconds
//	graphbench -compare a.json b.json               A/B two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// resultFile is what every invocation that measures leaves in bench/out.
type resultFile struct {
	Env      environment `json:"env"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Smoke    bool        `json:"smoke,omitempty"`
	EndToEnd []metricDef `json:"end_to_end"` // names, units and bounds, so -compare needs only the two files
	// Workloads holds, per workload, the end-to-end runs (one per seed)
	// and the traced pass; job and sample counts sit on each run.
	Workloads []*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name   string       `json:"name"`
	Why    string       `json:"why"`
	Runs   []*e2eResult `json:"runs,omitempty"`
	Layers *layerResult `json:"layers,omitempty"`
}

// resultLine is the last line of standard output in -workload mode, the
// shape the driver parses.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload and end with one JSON result line; empty runs all four and the traced pass")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "measured window of one end-to-end run")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced per-layer pass instead of the end-to-end pass")
	smoke := fs.Bool("smoke", false, "scale-10 graphs and a handful of jobs: checks the benchmark, measures nothing")
	compare := fs.Bool("compare", false, "compare two result files given as arguments; exit 1 if a metric got worse")
	runs := fs.Int("runs", 1, "without -workload: end-to-end runs per workload, on seeds seed..seed+runs-1")
	out := fs.String("out", "", "result file (default bench/out/result-seed<N>.json)")
	repo := fs.String("repo", "", "checkout root (default: found above the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "graphbench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	if *repo == "" {
		wd, err := os.Getwd()
		if err != nil {
			return fail(err)
		}
		if *repo, err = findRepo(wd); err != nil {
			return fail(err)
		}
	}
	l, err := newLayout(*repo)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if *out, err = filepath.Abs(*out); err != nil { // before the working directory moves
			return fail(err)
		}
	}
	if err := l.buildBinaries(); err != nil {
		return fail(err)
	}
	if err := l.enterTmp(); err != nil {
		return fail(err)
	}
	p := fullParams(*seconds)
	if *smoke {
		p = smokeParams()
	}
	file := &resultFile{Env: readEnvironment(l.repo), Seed: *seed, Seconds: p.window.Seconds(), Smoke: p.smoke, EndToEnd: endToEnd}
	if file.Env.Noisy {
		fmt.Fprintf(stderr, "graphbench: warning: load average %.2f on %d cores at start, this run is marked noisy\n",
			file.Env.Load1, file.Env.NProc)
	}
	b := &bench{l: l, p: p, file: file, out: *out, stdout: stdout, stderr: stderr}
	if *name != "" {
		err = b.one(*name, *seed, *trace != 0)
	} else {
		err = b.all(*seed, *runs)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// bench is one measuring invocation: where things live, how big the run
// is, and the result file it fills.
type bench struct {
	l              layout
	p              params
	file           *resultFile
	out            string
	stdout, stderr io.Writer
}

// one is the driver's form: a single end-to-end run or traced pass of one
// workload, the readable table on standard error and the result line as
// the last line of standard output.
func (b *bench) one(name string, seed int64, traced bool) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	wr := &workloadResult{Name: w.Name, Why: w.Why}
	b.file.Workloads = []*workloadResult{wr}
	var line resultLine
	if traced {
		lr, err := runLayers(b.l, w, b.p, seed, b.stderr)
		if err != nil {
			return err
		}
		wr.Layers = lr
		line = resultLine{lr.Failed == 0, lr.Attempted, lr.Failed, lr.Metrics}
	} else {
		er, err := runE2E(b.l, w, b.p, seed, b.stderr)
		if err != nil {
			return err
		}
		wr.Runs = []*e2eResult{er}
		line = resultLine{er.Failed == 0, er.Attempted, er.Failed, er.Metrics}
	}
	if b.out == "" {
		kind := "e2e"
		if traced {
			kind = "layers"
		}
		b.out = filepath.Join(b.l.out, fmt.Sprintf("%s-seed%d-%s.json", w.Name, seed, kind))
	}
	if err := writeJSON(b.out, b.file); err != nil {
		return err
	}
	printMetrics(b.stderr, w.Name, line.Metrics)
	if err := json.NewEncoder(b.stdout).Encode(line); err != nil {
		return err
	}
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d jobs failed or disagreed with the oracle: %s",
			w.Name, line.Failed, line.Attempted, strings.Join(errorsOf(wr), "; "))
	}
	return nil
}

// all runs every workload end to end (runs times, on consecutive seeds),
// then every workload's traced pass, and prints the report.
func (b *bench) all(seed int64, runs int) error {
	failed := 0
	for _, w := range workloads {
		wr := &workloadResult{Name: w.Name, Why: w.Why}
		b.file.Workloads = append(b.file.Workloads, wr)
		for i := 0; i < runs; i++ {
			er, err := runE2E(b.l, w, b.p, seed+int64(i), b.stderr)
			if err != nil {
				return err
			}
			wr.Runs = append(wr.Runs, er)
			failed += er.Failed
		}
	}
	for i, w := range workloads {
		lr, err := runLayers(b.l, w, b.p, seed, b.stderr)
		if err != nil {
			return err
		}
		b.file.Workloads[i].Layers = lr
		failed += lr.Failed
	}
	if b.out == "" {
		b.out = filepath.Join(b.l.out, fmt.Sprintf("result-seed%d.json", seed))
	}
	if err := writeJSON(b.out, b.file); err != nil {
		return err
	}
	printReport(b.stdout, b.file)
	fmt.Fprintf(b.stdout, "\nresult file: %s\n", b.out)
	if failed > 0 {
		for _, wr := range b.file.Workloads {
			for _, e := range errorsOf(wr) {
				fmt.Fprintf(b.stderr, "graphbench: %s: %s\n", wr.Name, e)
			}
		}
		return fmt.Errorf("%d jobs failed or disagreed with the oracle", failed)
	}
	return nil
}

func errorsOf(wr *workloadResult) []string {
	var out []string
	for _, r := range wr.Runs {
		out = append(out, r.Errors...)
	}
	if wr.Layers != nil {
		out = append(out, wr.Layers.Errors...)
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printMetrics lists one run's metrics by name with their units.
func printMetrics(w io.Writer, workload string, m map[string]measured) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := m[d.Name]; ok {
				fmt.Fprintf(w, "%-20s %-42s %14.4f %s\n", workload, d.Name, v.Value, v.Unit)
			}
		}
	}
}

// printReport is the all-workloads summary: every end-to-end metric as
// median and quartiles over the runs, then every per-layer metric.
func printReport(w io.Writer, f *resultFile) {
	fmt.Fprintf(w, "graphbench seed %d, %gs windows, %s, %d cores, commit %s\n\n",
		f.Seed, f.Seconds, f.Env.GoVersion, f.Env.NProc, f.Env.GitCommit)
	fmt.Fprintf(w, "%-20s %-18s %-5s %12s %12s %12s %5s %7s\n",
		"workload", "metric", "unit", "median", "q1", "q3", "runs", "bound")
	for _, wr := range f.Workloads {
		for _, d := range f.EndToEnd {
			vals := valuesOf(wr, d.Name)
			q1, q3 := quartiles(vals)
			fmt.Fprintf(w, "%-20s %-18s %-5s %12.4f %12.4f %12.4f %5d %6.0f%%\n",
				wr.Name, d.Name, d.Unit, median(vals), q1, q3, len(vals), d.Bound*100)
		}
		att, bad, jobs := 0, 0, 0
		for _, r := range wr.Runs {
			att, bad, jobs = att+r.Attempted, bad+r.Failed, jobs+len(r.Walls)
		}
		fmt.Fprintf(w, "%-20s %-18s %-5s %12d of %d attempted, %d measured samples\n\n",
			wr.Name, "failed", "count", bad, att, jobs)
	}
	for _, wr := range f.Workloads {
		if wr.Layers != nil {
			printMetrics(w, wr.Name, wr.Layers.Metrics)
			fmt.Fprintln(w)
		}
	}
}

// valuesOf collects one end-to-end metric over a workload's runs.
func valuesOf(wr *workloadResult, metric string) []float64 {
	var out []float64
	for _, r := range wr.Runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
