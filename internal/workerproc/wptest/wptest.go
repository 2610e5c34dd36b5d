// Package wptest is the TestMain of every test binary that runs real
// multi-process jobs.
package wptest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/workerproc"
)

// Pool is the test binary's shared worker pool, set by Main before the
// tests run: tests run their jobs on it (Pool.Run, or a job manager
// handed it) instead of on pools of their own, so every job lands on
// processes that have already run every earlier test's jobs — the
// cross-job state-leak test a warm pool needs.
var Pool *workerproc.Pool

// Main implements the graphworker re-exec — a pool spawns the test
// binary itself with workerproc.ChildEnv set, so no separate binary has
// to be built first — and otherwise runs the tests with Pool open. When
// they are done it closes Pool and fails the binary if any worker
// process, of Pool or of any other pool a test made, is still there, or
// if leakcheck.Check finds a goroutine of this module's code.
func Main(m *testing.M) {
	if os.Getenv(workerproc.ChildEnv) != "" {
		os.Exit(workerproc.Main(os.Stdin, os.Stdout, os.Stderr))
	}
	var err error
	if Pool, err = workerproc.NewPool(os.Args[0]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	Pool.Close()
	if pids := children(); len(pids) > 0 {
		fmt.Fprintf(os.Stderr, "child processes %v outlived the tests\n", pids)
		for _, pid := range pids {
			if p, err := os.FindProcess(pid); err == nil {
				p.Kill()
			}
		}
		code = 1
	}
	if err := leakcheck.Check(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// children lists the live (or unreaped) processes whose parent is this
// one, from /proc; empty where there is no /proc.
func children() []int {
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var pids []int
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // exited since the glob
		}
		// pid (comm) state ppid ...; comm may itself contain spaces or ')'
		i := bytes.LastIndexByte(b, ')')
		fields := bytes.Fields(b[i+1:])
		if i < 0 || len(fields) < 2 {
			continue
		}
		ppid, _ := strconv.Atoi(string(fields[1]))
		pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
		if ppid == os.Getpid() {
			pids = append(pids, pid)
		}
	}
	return pids
}
