package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded in every result file so two files can be told
// apart before their numbers are compared.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	Load1      float64 `json:"load1_at_start"`
	// Noisy marks a run that started with the 1-minute load average
	// above half the cores: its timings deserve a second look.
	Noisy bool `json:"noisy"`
}

func readEnvironment(repo string) environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit(repo),
		Load1:      load1(),
	}
	e.Noisy = e.Load1 > 0.5*float64(e.NProc)
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is "unknown" in the driver's checkout, which is not a git
// repository.
func gitCommit(repo string) string {
	out, err := exec.Command("git", "-C", repo, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as idle
	return v
}

// layout is where the benchmark finds the repo and keeps its files.
type layout struct {
	repo string // checkout root
	bin  string // graphd and graphworker, built by buildBinaries
	out  string // result and trace files
	tmp  string // working directory of every process the benchmark starts
}

// findRepo walks up from dir to the checkout root, recognised by the
// daemon's and the benchmark's sources.
func findRepo(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if isDir(filepath.Join(dir, "cmd", "graphd")) && isDir(filepath.Join(dir, "bench", "graphbench")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout with cmd/graphd and bench/graphbench above the working directory")
		}
		dir = parent
	}
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

func newLayout(repo string) (layout, error) {
	l := layout{
		repo: repo,
		bin:  filepath.Join(repo, ".bench_build", "bin"),
		out:  filepath.Join(repo, "bench", "out"),
		tmp:  filepath.Join(repo, "bench", "out", "tmp"),
	}
	for _, d := range []string{l.bin, l.tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return layout{}, err
		}
	}
	return l, nil
}

// enterTmp makes l.tmp the working directory and the relative TMPDIR of
// this process and its children. graphd, the coordinator and the p2p mesh
// create their Unix sockets under os.TempDir(); a relative path keeps
// them inside the checkout without running into the 108-byte limit on
// socket paths, however long the checkout's own path is.
func (l layout) enterTmp() error {
	if err := os.Chdir(l.tmp); err != nil {
		return err
	}
	return os.Setenv("TMPDIR", ".")
}

// buildBinaries compiles graphd and graphworker side by side (graphd
// looks for graphworker next to itself). It runs before any clock starts.
func (l layout) buildBinaries() error {
	cmd := exec.Command("go", "build", "-o", l.bin+string(os.PathSeparator), "./cmd/graphd", "./cmd/graphworker")
	cmd.Dir = l.repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build graphd and graphworker: %v\n%s", err, out)
	}
	return nil
}
