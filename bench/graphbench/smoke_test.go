package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the driver's description of this benchmark at the
// repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestSmoke runs the whole benchmark on scale-10 graphs — four graphd
// subprocesses, worker processes, the traced pass — and checks that what
// it emits is what BENCHMARK.json promises the driver.
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	repo, err := findRepo(wd)
	if err != nil {
		t.Fatal(err)
	}
	// run moves the process into bench/out/tmp with a relative TMPDIR
	t.Chdir(wd)
	t.Setenv("TMPDIR", os.TempDir())
	out := filepath.Join(t.TempDir(), "smoke.json")

	b, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, graphbench has %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from graphbench's table")
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, graphbench %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("BENCHMARK.json workload %d = %+v, graphbench has %s: %s", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || !strings.HasPrefix(bj.Command[len(bj.Command)-1], "bench/") {
		t.Errorf("BENCHMARK.json command %v / paths %v do not point into bench/", bj.Command, bj.Paths)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-repo", repo, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("graphbench -smoke exited %d\n%s", code, stderr.String())
	}
	file, err := loadResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if file.Env.NProc == 0 || file.Env.GoVersion == "" || file.Env.CPUModel == "" || file.Env.GitCommit == "" {
		t.Errorf("environment record incomplete: %+v", file.Env)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("result file has %d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for _, wr := range file.Workloads {
		if len(wr.Runs) != 1 || wr.Layers == nil {
			t.Fatalf("%s: %d runs, layers %v; want 1 run and a traced pass", wr.Name, len(wr.Runs), wr.Layers != nil)
		}
		r := wr.Runs[0]
		if r.Failed != 0 || len(r.Walls) != smokeParams().minJobs {
			t.Errorf("%s: %d failed, %d measured jobs, want 0 and %d", wr.Name, r.Failed, len(r.Walls), smokeParams().minJobs)
		}
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit || v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive %s", wr.Name, d.Name, v, ok, d.Unit)
			}
		}
		if wr.Layers.Failed != 0 {
			t.Errorf("%s: traced pass failed %d operations: %v", wr.Name, wr.Layers.Failed, wr.Layers.Errors)
		}
		for _, d := range perLayer {
			if v, ok := wr.Layers.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: per-layer %s missing or in the wrong unit: %+v", wr.Name, d.Name, v)
			}
		}
		if _, err := os.Stat(wr.Layers.TraceFile); err != nil {
			t.Errorf("%s: no trace file: %v", wr.Name, err)
		}
	}

	// the driver's form: one workload, the result as the last line
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		stdout.Reset()
		stderr.Reset()
		args := []string{"-smoke", "-repo", repo, "-workload", "wcc-prop-dist", "-seed", "3", "-seconds", "1",
			"-trace", []string{"0", "1"}[trace], "-out", out}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("graphbench %v exited %d\n%s", args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line of %v is not JSON: %v", args, err)
		}
		if len(line) != 4 {
			t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", line)
		}
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Errorf("trace %d: result %+v, want correct with %d metrics", trace, res, len(defs))
		}
		for _, d := range defs {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("trace %d: result line lacks %s", trace, d.Name)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50s ...float64) *resultFile {
		wr := &workloadResult{Name: "w"}
		for _, v := range p50s {
			wr.Runs = append(wr.Runs, &e2eResult{tally: tally{Attempted: 10}, Metrics: map[string]measured{
				"job_wall_ms_p50": {Value: v, Unit: "ms"}}})
		}
		return &resultFile{EndToEnd: endToEnd, Workloads: []*workloadResult{wr}}
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(100, 101, 99, 100, 102))
	for _, tc := range []struct {
		name    string
		file    *resultFile
		verdict string
		worse   bool
	}{
		{"same", mk(101, 100, 99, 102, 100), "ok", false},
		{"slower", mk(140, 141, 139, 140, 142), "worse", true},
		{"scattered", mk(80, 140, 100, 60, 150), "unresolved", false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(tc.name+".json", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.verdict+" (n=5,5)") {
			t.Errorf("%s: worse=%v, want %v with verdict %q\n%s", tc.name, worse, tc.worse, tc.verdict, out.String())
		}
	}
	failing := mk(100, 100, 100, 100, 100)
	failing.Workloads[0].Runs[0].Failed = 1
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, write("failing.json", failing)); err != nil || !worse {
		t.Errorf("a run with failed jobs compared as worse=%v err=%v, want worse", worse, err)
	}
}
