package workerproc

import (
	"fmt"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/netcomm"
)

// FaultSpec describes one deterministic injected fault for the recovery
// tests and the chaos CI job. It fires at the checkpoint probe of the
// named worker's superstep — the point after compute, before round 1
// serializes, that both engines share — so a given (kind, worker,
// superstep) triple reproduces the same failure on every run regardless
// of scheduling.
type FaultSpec struct {
	// Kind is the failure mode:
	//
	//	kill  — SIGKILL the worker's own process (no unwinding, no
	//	        goodbye: the hub sees the connection drop)
	//	drop  — close the hub connection but keep running (the fabric
	//	        fails mid-exchange while the process lives)
	//	stall — park the worker forever (the failure only a wall-clock
	//	        watchdog can detect)
	//	slow  — sleep slowDelay at the probe point of every superstep from
	//	        S on (not a failure: a deterministic straggler for the
	//	        diagnosis tests — every other worker accumulates barrier
	//	        wait blaming this one)
	Kind string
	// Worker is the job-wide worker id that suffers the fault.
	Worker int
	// Superstep is the superstep whose probe point triggers it.
	Superstep int
}

// slowDelay is how long a "slow" fault parks its worker per superstep —
// long enough to dominate a small test job's compute time, short enough
// to keep the suite quick.
const slowDelay = 30 * time.Millisecond

// ParseFault parses the -fault flag syntax "kind:W@S", e.g. "kill:1@3".
func ParseFault(s string) (*FaultSpec, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("workerproc: bad fault %q (want kind:W@S)", s)
	}
	switch kind {
	case "kill", "drop", "stall", "slow":
	default:
		return nil, fmt.Errorf("workerproc: unknown fault kind %q", kind)
	}
	wS, sS, ok := strings.Cut(rest, "@")
	if !ok {
		return nil, fmt.Errorf("workerproc: bad fault %q (want kind:W@S)", s)
	}
	w, err := strconv.Atoi(wS)
	if err != nil || w < 0 {
		return nil, fmt.Errorf("workerproc: bad fault worker in %q", s)
	}
	step, err := strconv.Atoi(sS)
	if err != nil || step <= 0 {
		return nil, fmt.Errorf("workerproc: bad fault superstep in %q", s)
	}
	return &FaultSpec{Kind: kind, Worker: w, Superstep: step}, nil
}

// String renders the spec back into the -fault flag syntax.
func (f *FaultSpec) String() string {
	return fmt.Sprintf("%s:%d@%d", f.Kind, f.Worker, f.Superstep)
}

// probe returns the checkpoint-seam callback that fires the fault in a
// worker process hosting workers over client's connection.
func (f *FaultSpec) probe(client *netcomm.Client) func(worker, superstep int) {
	return func(worker, superstep int) {
		if f.Kind == "slow" {
			// not a one-shot failure: the straggler stays slow for the
			// rest of the run so the skew is visible in every sample
			if worker == f.Worker && superstep >= f.Superstep {
				time.Sleep(slowDelay)
			}
			return
		}
		if worker != f.Worker || superstep != f.Superstep {
			return
		}
		switch f.Kind {
		case "kill":
			syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
		case "drop":
			client.Close()
		case "stall":
			select {}
		}
	}
}
