package bsp

import (
	"fmt"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ser"
)

// sends scripts a job's traffic: sends[s][r][src][dst] is how many bytes
// worker src sends worker dst in round r+1 of superstep s+1. Each
// superstep lasts as many rounds as it scripts; the superstep after the
// last halts every vertex, in one round that sends nothing.
type sends [][][][]int

// sender is the Program that plays a sends script.
type sender struct {
	Core
	script sends
}

func (p *sender) Setup() error { return nil }
func (p *sender) Initialize()  {}

func (p *sender) Compute() {
	if p.Superstep() > len(p.script) {
		for li := range p.LocalCount() {
			p.DeactivateLocal(li)
		}
	}
}

// bytes is what src sends dst in the current round.
func (p *sender) bytes(src, dst int) int {
	if s := p.Superstep(); s <= len(p.script) {
		return p.script[s-1][p.Round()-1][src][dst]
	}
	return 0
}

func (p *sender) Serialize(dst int, buf *ser.Buffer) {
	buf.Extend(p.bytes(p.WorkerID(), dst))
}

func (p *sender) Deserialize(src int, in *ser.Buffer) error {
	if got, want := in.Remaining(), p.bytes(src, p.WorkerID()); got != want {
		return fmt.Errorf("%d bytes from worker %d, want %d", got, src, want)
	}
	return nil
}

func (p *sender) Decoding() any { return nil }

func (p *sender) Again() bool {
	s := p.Superstep()
	return s <= len(p.script) && p.Round() < len(p.script[s-1])
}

func (p *sender) SaveState(rec *ckpt.Record)          {}
func (p *sender) RestoreState(rec *ckpt.Record) error { return nil }

// playSends runs script on its workers, one vertex each, in process.
func playSends(t *testing.T, script sends, flows *obs.FlowAccum) Metrics {
	t.Helper()
	m := len(script[0][0])
	env := Env{Part: partition.MustHash(m, m), Flows: flows}
	met, err := Run(env, "sends", func() Program { return &sender{script: script} })
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps != len(script)+1 {
		t.Fatalf("%d supersteps, want %d", met.Supersteps, len(script)+1)
	}
	return met
}

// The driver counts every byte a worker flushes: to other workers as
// network bytes, to itself as loopback, once per exchange round, and
// into the (src, dst) cells of the flow matrix.
func TestDriverCountsTraffic(t *testing.T) {
	// worker 0 sends 4 bytes to 1, 8 to 2, 2 to itself; then 1 sends 3
	// to 0 over a second round of the same superstep
	script := sends{{
		{{2, 4, 8}, {0, 0, 0}, {0, 0, 0}},
		{{0, 0, 0}, {3, 0, 0}, {0, 0, 0}},
	}}
	flows := obs.NewFlowAccum(3)
	met := playSends(t, script, flows)
	if met.NetBytes != 15 || met.LocalBytes != 2 || met.Rounds != 3 {
		t.Errorf("net=%d local=%d rounds=%d, want 15, 2 and 3", met.NetBytes, met.LocalBytes, met.Rounds)
	}
	want := map[[2]int]int64{{0, 0}: 2, {0, 1}: 4, {0, 2}: 8, {1, 0}: 3}
	cells := flows.Matrix().Flows
	if len(cells) != len(want) {
		t.Errorf("flow cells %+v, want %v", cells, want)
	}
	for _, f := range cells {
		if f.Bytes != want[[2]int{f.Src, f.Dst}] || f.Frames != 1 {
			t.Errorf("flow %d->%d: %d bytes in %d frames, want %d in 1", f.Src, f.Dst, f.Bytes, f.Frames, want[[2]int{f.Src, f.Dst}])
		}
	}
}

// The model charges every exchange round its latency plus the volume of
// the round's busiest worker — not the round's total, and not any one
// worker's — so it is Σ over rounds of comm.RoundTime(per-round max).
func TestCostChargesBusiestWorker(t *testing.T) {
	script := sends{
		{ // worker 0 is the busiest in round 1, worker 2 in round 2
			{{0, 8000, 0}, {100, 0, 100}, {0, 50, 0}},
			{{0, 10, 0}, {0, 0, 20}, {9000, 3000, 500}},
		},
		{ // worker 1 alone, loopback bytes not charged
			{{1 << 20, 0, 0}, {5000, 0, 0}, {0, 0, 0}},
		},
	}
	met := playSends(t, script, nil)
	// the busiest off-worker volumes: 8000 (worker 0), 12000 (worker 2),
	// 5000 (worker 1), then the halting superstep's empty round
	want := comm.RoundTime(8000) + comm.RoundTime(12000) + comm.RoundTime(5000) + comm.RoundTime(0)
	if met.Rounds != 4 || met.Model != want {
		t.Errorf("model %v over %d rounds, want %v over 4", met.Model, met.Rounds, want)
	}
}
