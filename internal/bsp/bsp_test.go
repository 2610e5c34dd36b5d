package bsp

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/barrier"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/ser"
)

const (
	scriptWorkers  = 4
	scriptVertices = 10
	scriptSteps    = 6 // supersteps that compute; the next one halts every vertex
)

// scriptJob is what the scripted workers of one run share with the
// test: the checkpoint hook, each worker's trace of rounds and the
// barrier crossings of the whole run.
type scriptJob struct {
	hook      *ckpt.Hook
	trace     [scriptWorkers][]string // "superstep.round:again" per round, and "compute s"
	crossings atomic.Int64
	// uncertified names a worker that decoded round 1 of a due superstep
	// before every worker's record of it was stored
	uncertified atomic.Value
	final       [scriptWorkers]int64
}

// script is a scripted Program: one number of state per worker, folded
// from what every peer sent in every round. Each superstep lasts a
// number of rounds only one worker asks for, and what is sent depends on
// the state, so a restore that loses a byte of state or of a message in
// flight shows in the trace or the final values.
type script struct {
	Core
	job *scriptJob
	val int64 // the vertex state (the Save closure's)
	sum int64 // what this superstep's rounds delivered
}

func (p *script) Setup() error {
	p.Checkpoint(
		func(buf *ser.Buffer) { buf.WriteVarint(p.val) },
		func(buf *ser.Buffer) { p.val = buf.ReadVarint() },
	)
	return nil
}

func (p *script) Initialize() bool { return false }

func (p *script) Compute() {
	s := p.Superstep()
	p.job.trace[p.WorkerID()] = append(p.job.trace[p.WorkerID()], fmt.Sprintf("compute %d", s))
	p.val = p.val*31 + p.sum + int64(p.WorkerID())
	p.sum = 0
	if s > scriptSteps {
		for li := range p.LocalCount() {
			p.DeactivateLocal(li)
		}
	}
}

func (p *script) Serialize(dst int, buf *ser.Buffer) {
	buf.WriteVarint(p.val + int64(dst*p.Round()))
}

func (p *script) Deserialize(src int, in *ser.Buffer) error {
	if h := p.job.hook; p.Round() == 1 && h.ShouldSave(p.Superstep()) {
		for w := range scriptWorkers {
			if _, err := h.Store.Get(h.Job, p.Superstep(), w); err != nil {
				p.job.uncertified.CompareAndSwap(nil, fmt.Sprintf("worker %d decoded superstep %d before worker %d's record was stored", p.WorkerID(), p.Superstep(), w))
			}
		}
	}
	p.sum = p.sum*7 + in.ReadVarint()
	if in.Remaining() != 0 {
		return errors.New("trailing bytes")
	}
	return nil
}

func (p *script) Decoding() any { return nil }

// Again: worker s%M asks for rounds until the superstep has 1 + s%3.
func (p *script) Again() bool {
	s := p.Superstep()
	again := p.WorkerID() == s%scriptWorkers && p.Round() < 1+s%3
	p.job.trace[p.WorkerID()] = append(p.job.trace[p.WorkerID()], fmt.Sprintf("%d.%d:%v", s, p.Round(), again))
	p.job.final[p.WorkerID()] = p.val*1000003 + p.sum
	return again
}

func (p *script) SaveState(rec *ckpt.Record) {}

func (p *script) RestoreState(rec *ckpt.Record) error {
	if len(rec.Engine) != 0 || len(rec.Channels) != 0 {
		return errors.New("record carries engine state")
	}
	return nil
}

// countingFabric counts every barrier crossing of every worker.
type countingFabric struct {
	*comm.InProc
	calls *atomic.Int64
}

func (f countingFabric) Barrier() barrier.Barrier {
	return countingBarrier{f.InProc.Barrier(), f.calls}
}

type countingBarrier struct {
	barrier.Barrier
	calls *atomic.Int64
}

func (b countingBarrier) Wait() bool {
	b.calls.Add(1)
	return b.Barrier.Wait()
}

func (b countingBarrier) AllReduce(v uint64) (uint64, bool) {
	b.calls.Add(1)
	return b.Barrier.AllReduce(v)
}

// runScript runs the scripted job under hook (nil: no checkpointing).
func runScript(t *testing.T, hook *ckpt.Hook) (*scriptJob, Metrics, error) {
	t.Helper()
	job := &scriptJob{hook: hook}
	fab := countingFabric{comm.NewInProc(scriptWorkers, comm.CostModel{}), &job.crossings}
	env := Env{Part: partition.MustHash(scriptVertices, scriptWorkers), Fabric: fab, Checkpoint: hook}
	met, err := Run(env, "script", func() Program { return &script{job: job} })
	return job, met, err
}

// keepAll hides the directory store's Pruner so every cut stays.
type keepAll struct{ ckpt.Store }

// failingStore fails one worker's Put of one superstep.
type failingStore struct {
	ckpt.Store
	superstep, worker int
}

func (s failingStore) Put(job string, superstep, worker int, data []byte) error {
	if superstep == s.superstep && worker == s.worker {
		return errors.New("disk full")
	}
	return s.Store.Put(job, superstep, worker, data)
}

// A checkpoint costs no crossing of its own: every worker stores its
// record before round 1's flush, so round 1's crossing certifies it.
func TestCheckpointPutPrecedesRoundOneCrossing(t *testing.T) {
	clean, met, err := runScript(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	hook := &ckpt.Hook{Store: keepAll{ckpt.NewDir(t.TempDir())}, Job: "t", Interval: 1}
	saved, smet, err := runScript(t, hook)
	if err != nil {
		t.Fatal(err)
	}
	if msg := saved.uncertified.Load(); msg != nil {
		t.Fatal(msg)
	}
	if smet.Supersteps != scriptSteps+1 || smet.Comm.Rounds <= int64(smet.Supersteps) {
		t.Fatalf("%d supersteps in %d rounds: the script is meant to run %d, some of several rounds", smet.Supersteps, smet.Comm.Rounds, scriptSteps+1)
	}
	if saved.final != clean.final || !slices.Equal(saved.trace[0], clean.trace[0]) {
		t.Fatal("checkpointing changed the run")
	}
	if got, want := saved.crossings.Load(), clean.crossings.Load(); got != want || want != scriptWorkers*(1+2*met.Comm.Rounds) {
		t.Fatalf("%d crossings checkpointing, %d clean; want set-up + 2 per round = %d", got, want, scriptWorkers*(1+2*met.Comm.Rounds))
	}
	if s, err := hook.Store.LatestComplete("t", scriptWorkers); err != nil || s != smet.Supersteps {
		t.Fatalf("latest complete cut %d, %v; want %d", s, err, smet.Supersteps)
	}
}

// A worker whose Put fails fails the job, and the superstep it was
// cutting never becomes a complete checkpoint.
func TestCheckpointFailedPutFailsJob(t *testing.T) {
	dir := ckpt.NewDir(t.TempDir())
	hook := &ckpt.Hook{Store: failingStore{dir, 4, 2}, Job: "t", Interval: 2}
	_, _, err := runScript(t, hook)
	if err == nil || !strings.Contains(err.Error(), "worker 2: checkpoint superstep 4: disk full") {
		t.Fatalf("job returned %v", err)
	}
	if s, err := dir.LatestComplete("t", scriptWorkers); err != nil || s != 2 {
		t.Fatalf("latest complete cut %d, %v; want 2", s, err)
	}
}

// A restore resumes its superstep at round 1's flush and runs exactly
// the rounds, votes and state of the clean run from there — including
// the supersteps of several rounds, and the job's last superstep, after
// which nothing more computes.
func TestCheckpointRestoreMatchesCleanRounds(t *testing.T) {
	clean, met, err := runScript(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := keepAll{ckpt.NewDir(t.TempDir())}
	if _, _, err := runScript(t, &ckpt.Hook{Store: store, Job: "t", Interval: 1}); err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= met.Supersteps; s++ {
		got, rmet, err := runScript(t, &ckpt.Hook{Store: store, Job: "t", Restore: s})
		if err != nil {
			t.Fatalf("restore from superstep %d: %v", s, err)
		}
		if rmet.Supersteps != met.Supersteps || got.final != clean.final {
			t.Fatalf("restored from %d: %d supersteps, final %v; clean run %d, %v", s, rmet.Supersteps, got.final, met.Supersteps, clean.final)
		}
		for w := range scriptWorkers {
			// the clean trace from the cut superstep's first round on
			round1 := fmt.Sprintf("%d.1:", s)
			from := slices.IndexFunc(clean.trace[w], func(e string) bool { return strings.HasPrefix(e, round1) })
			if want := clean.trace[w][from:]; !slices.Equal(got.trace[w], want) {
				t.Fatalf("restored from %d, worker %d:\n got %v\nwant %v", s, w, got.trace[w], want)
			}
		}
		if s == met.Supersteps && slices.ContainsFunc(got.trace[0], func(e string) bool { return strings.HasPrefix(e, "compute") }) {
			t.Fatalf("restoring the last superstep computed again: %v", got.trace[0])
		}
	}
}

// A record is checked against the job's shape before anything of it is
// applied: one outgoing buffer per worker, one bit per local vertex.
func TestCheckpointRestoreRejectsRecordShape(t *testing.T) {
	store := keepAll{ckpt.NewDir(t.TempDir())}
	if _, _, err := runScript(t, &ckpt.Hook{Store: store, Job: "t", Interval: 1}); err != nil {
		t.Fatal(err)
	}
	for name, alter := range map[string]func(*ckpt.Record){
		"one outgoing buffer short": func(r *ckpt.Record) { r.Out = r.Out[:scriptWorkers-1] },
		"one outgoing buffer extra": func(r *ckpt.Record) { r.Out = append(r.Out, nil) },
		"one vertex extra":          func(r *ckpt.Record) { r.Active = append(r.Active, true) },
	} {
		bad := ckpt.NewDir(t.TempDir())
		for w := range scriptWorkers {
			data, err := store.Get("t", 3, w)
			if err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				rec, err := ckpt.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				alter(rec)
				var buf ser.Buffer
				rec.Encode(&buf)
				data = buf.Bytes()
			}
			if err := bad.Put("t", 3, w, data); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := runScript(t, &ckpt.Hook{Store: bad, Job: "t", Restore: 3})
		if err == nil || !strings.Contains(err.Error(), "worker 1: restore checkpoint 3: record does not match job shape") {
			t.Errorf("%s: restore returned %v", name, err)
		}
	}
}
