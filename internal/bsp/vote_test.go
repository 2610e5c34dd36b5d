package bsp

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/barrier"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/ser"
)

// post is one worker's end-of-round vote: ask for another round, keep a
// vertex active, request a stop.
type post struct{ again, active, halt bool }

// voter is the Program that plays one post per worker in superstep 1:
// compute leaves its vertex active or halts it and may RequestStop, and
// round 1 asks again as scripted. A second round asks nothing and
// posts the same active and halt flags. Superstep 2, when the votes let
// the job reach it, halts every vertex and asks nothing.
type voter struct {
	Core
	posts []post
	trace [][]string // per worker: "compute s" and "s.r" per round
}

func (p *voter) Setup() error { return nil }
func (p *voter) Initialize()  {}

func (p *voter) record(e string) {
	p.trace[p.WorkerID()] = append(p.trace[p.WorkerID()], e)
}

func (p *voter) Compute() {
	p.record(fmt.Sprintf("compute %d", p.Superstep()))
	mine := p.posts[p.WorkerID()]
	if p.Superstep() > 1 || !mine.active {
		for li := range p.LocalCount() {
			p.DeactivateLocal(li)
		}
	}
	if p.Superstep() == 1 && mine.halt {
		p.RequestStop()
	}
}

func (p *voter) Serialize(dst int, buf *ser.Buffer) {}

func (p *voter) Deserialize(src int, in *ser.Buffer) error {
	if in.Remaining() != 0 {
		return fmt.Errorf("%d bytes from worker %d", in.Remaining(), src)
	}
	return nil
}

func (p *voter) Decoding() any { return nil }

func (p *voter) Again() bool {
	p.record(fmt.Sprintf("%d.%d", p.Superstep(), p.Round()))
	return p.Superstep() == 1 && p.Round() == 1 && p.posts[p.WorkerID()].again
}

func (p *voter) SaveState(rec *ckpt.Record)          {}
func (p *voter) RestoreState(rec *ckpt.Record) error { return nil }

// The driver's end-of-round crossing decides everything from one reduced
// word: another round when any worker asks again, else the job's end
// when no worker has an active vertex or any requested a stop. Every
// combination of the three flags on 1 to 3 workers must run exactly the
// rounds and supersteps those rules give — in particular a worker's
// again must win over any worker's halt: the superstep finishes its
// rounds first, and the job ends only at the crossing where nobody asks
// again.
func TestDriverVoteCombinations(t *testing.T) {
	for m := 1; m <= 3; m++ {
		combos := 1
		for range m {
			combos *= 8
		}
		for c := range combos {
			posts := make([]post, m)
			var sum uint64
			anyAgain, anyActive, anyHalt := false, false, false
			for w := range posts {
				bits := c >> (3 * w)
				posts[w] = post{again: bits&1 != 0, active: bits&2 != 0, halt: bits&4 != 0}
				sum += barrier.Vote(posts[w].again, posts[w].active, posts[w].halt)
				anyAgain = anyAgain || posts[w].again
				anyActive = anyActive || posts[w].active
				anyHalt = anyHalt || posts[w].halt
			}
			// the round after an again posts the same flags without it
			last := sum
			if barrier.Again(sum) {
				last = 0
				for _, q := range posts {
					last += barrier.Vote(false, q.active, q.halt)
				}
			}
			if barrier.Again(sum) != anyAgain || barrier.Again(last) || barrier.Terminated(last) != (!anyActive || anyHalt) {
				t.Fatalf("%v: Again(%#x)=%v, Again(%#x)=%v, Terminated=%v", posts, sum, barrier.Again(sum), last, barrier.Again(last), barrier.Terminated(last))
			}

			want, steps, rounds := []string{"compute 1", "1.1"}, 1, 1
			if anyAgain {
				want, rounds = append(want, "1.2"), rounds+1
			}
			if !barrier.Terminated(last) {
				want, steps, rounds = append(want, "compute 2", "2.1"), 2, rounds+1
			}
			trace := make([][]string, m)
			env := Env{Part: partition.MustHash(m, m), Fabric: comm.NewInProc(m)}
			met, err := Run(env, "vote", func() Program { return &voter{posts: posts, trace: trace} })
			if err != nil {
				t.Fatalf("%v: %v", posts, err)
			}
			if met.Supersteps != steps || met.Rounds != int64(rounds) {
				t.Errorf("%v: %d supersteps in %d rounds, want %d in %d", posts, met.Supersteps, met.Rounds, steps, rounds)
			}
			for w, got := range trace {
				if !slices.Equal(got, want) {
					t.Errorf("%v: worker %d ran %v, want %v", posts, w, got, want)
				}
			}
		}
	}
}
