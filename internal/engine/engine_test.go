package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/ser"
)

// nullChannel sends nothing; used to exercise the framing with inactive
// channels.
type nullChannel struct{}

func (nullChannel) Initialize()                        {}
func (nullChannel) AfterCompute()                      {}
func (nullChannel) Serialize(dst int, b *ser.Buffer)   {}
func (nullChannel) Deserialize(src int, b *ser.Buffer) {}
func (nullChannel) Again() bool                        { return false }

// ringChannel forwards one uint32 token to the next vertex id each
// superstep (a minimal hand-rolled message channel for engine testing).
type ringChannel struct {
	w   *Worker
	out []struct {
		dst uint32
		val uint32
	}
	in      []uint32
	inEpoch []int32
}

func newRingChannel(w *Worker) *ringChannel {
	c := &ringChannel{w: w}
	w.Register(c)
	return c
}

func (c *ringChannel) Initialize() {
	c.in = make([]uint32, c.w.LocalCount())
	c.inEpoch = make([]int32, c.w.LocalCount())
}

func (c *ringChannel) AfterCompute() {}

func (c *ringChannel) send(dst uint32, v uint32) {
	c.out = append(c.out, struct{ dst, val uint32 }{dst, v})
}

func (c *ringChannel) recv(li int) (uint32, bool) {
	if c.inEpoch[li] == int32(c.w.Superstep()-1) {
		return c.in[li], true
	}
	return 0, false
}

func (c *ringChannel) Serialize(dst int, b *ser.Buffer) {
	kept := c.out[:0]
	for _, m := range c.out {
		if c.w.Part().Owner(m.dst) == dst {
			b.WriteUint32(m.dst)
			b.WriteUint32(m.val)
		} else {
			kept = append(kept, m)
		}
	}
	c.out = kept
}

func (c *ringChannel) Deserialize(src int, b *ser.Buffer) {
	for b.Remaining() > 0 {
		dst := b.ReadUint32()
		val := b.ReadUint32()
		li := c.w.Part().LocalIndex(dst)
		c.in[li] = val
		c.inEpoch[li] = int32(c.w.Superstep())
		c.w.ActivateLocal(li)
	}
}

func (c *ringChannel) Again() bool { return false }

func TestEngineTokenRing(t *testing.T) {
	const n = 12
	part := partition.MustHash(n, 3)
	finals := make([][]uint32, 3)
	met, err := Run(Config{Part: part}, func(w *Worker) {
		vals := make([]uint32, w.LocalCount())
		finals[w.WorkerID()] = vals
		ch := newRingChannel(w)
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				if id == 0 {
					ch.send((id+1)%n, 1)
				}
				w.VoteToHalt()
				return
			}
			if v, ok := ch.recv(li); ok {
				vals[li] = v
				if v < n {
					ch.send((id+1)%n, v+1)
				}
			}
			w.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// token visited every vertex once: vertex k (k>=1) saw k
	for k := 1; k < n; k++ {
		wk := part.Owner(uint32(k))
		li := part.LocalIndex(uint32(k))
		if finals[wk][li] != uint32(k) {
			t.Errorf("vertex %d saw %d", k, finals[wk][li])
		}
	}
	if met.Supersteps < n {
		t.Errorf("supersteps=%d want >= %d", met.Supersteps, n)
	}
	if met.Comm.NetworkBytes == 0 {
		t.Errorf("no network bytes recorded")
	}
}

func TestEngineImmediateHalt(t *testing.T) {
	part := partition.MustHash(10, 2)
	met, err := Run(Config{Part: part}, func(w *Worker) {
		newRingChannel(w)
		w.Compute = func(li int) { w.VoteToHalt() }
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps != 1 {
		t.Errorf("supersteps=%d want 1", met.Supersteps)
	}
}

// A ComputeRange program gets the whole local range once per superstep
// and owns activity: its vertices stay active until it halts them.
func TestEngineComputeRangeOwnsTheRange(t *testing.T) {
	part := partition.MustHash(10, 2)
	calls := make([]int, 2)
	met, err := Run(Config{Part: part}, func(w *Worker) {
		w.Register(nullChannel{})
		w.ComputeRange = func(lo, hi int) {
			if lo != 0 || hi != w.LocalCount() {
				panic(fmt.Sprintf("range [%d, %d), worker hosts %d vertices", lo, hi, w.LocalCount()))
			}
			calls[w.WorkerID()]++
			if w.Superstep() == 3 {
				for li := lo; li < hi; li++ {
					w.DeactivateLocal(li)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps != 3 || calls[0] != 3 || calls[1] != 3 {
		t.Errorf("supersteps=%d, calls per worker %v, want 3 and [3 3]", met.Supersteps, calls)
	}
}

func TestEngineRejectsComputeAndComputeRange(t *testing.T) {
	part := partition.MustHash(4, 2)
	_, err := Run(Config{Part: part}, func(w *Worker) {
		w.Register(nullChannel{})
		w.Compute = func(li int) { w.VoteToHalt() }
		w.ComputeRange = func(lo, hi int) {}
	})
	if err == nil || !strings.Contains(err.Error(), "setup installed both Compute and ComputeRange") {
		t.Fatalf("want the setup error, got %v", err)
	}
}

func TestEngineRequestStop(t *testing.T) {
	part := partition.MustHash(10, 2)
	met, err := Run(Config{Part: part}, func(w *Worker) {
		newRingChannel(w)
		w.Compute = func(li int) {
			if w.Superstep() == 3 {
				w.RequestStop()
			}
			// never vote: without RequestStop this would hit MaxSupersteps
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps != 3 {
		t.Errorf("supersteps=%d want 3", met.Supersteps)
	}
}

func TestEngineMaxSupersteps(t *testing.T) {
	part := partition.MustHash(4, 2)
	_, err := Run(Config{Part: part, MaxSupersteps: 5}, func(w *Worker) {
		newRingChannel(w)
		w.Compute = func(li int) { /* never halts */ }
	})
	if err == nil || !strings.Contains(err.Error(), "MaxSupersteps") {
		t.Fatalf("expected MaxSupersteps error, got %v", err)
	}
}

func TestEngineMissingCompute(t *testing.T) {
	part := partition.MustHash(4, 1)
	_, err := Run(Config{Part: part}, func(w *Worker) {})
	if err == nil || !strings.Contains(err.Error(), "Compute") {
		t.Fatalf("expected setup error, got %v", err)
	}
}

func TestEngineMissingPart(t *testing.T) {
	_, err := Run(Config{}, func(w *Worker) {})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestEngineEmptyWorker(t *testing.T) {
	// 3 workers, 2 vertices: one worker owns nothing and must still
	// participate in every barrier.
	part := partition.MustHash(2, 3)
	met, err := Run(Config{Part: part}, func(w *Worker) {
		ch := newRingChannel(w)
		w.Compute = func(li int) {
			if w.Superstep() == 1 && w.GlobalID(li) == 0 {
				ch.send(1, 42)
			}
			w.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps != 2 {
		t.Errorf("supersteps=%d", met.Supersteps)
	}
}

func TestEngineSingleWorker(t *testing.T) {
	part := partition.MustHash(5, 1)
	got := 0
	met, err := Run(Config{Part: part}, func(w *Worker) {
		ch := newRingChannel(w)
		w.Compute = func(li int) {
			if w.Superstep() == 1 && w.GlobalID(li) == 0 {
				ch.send(3, 7) // loopback message
			}
			if v, ok := ch.recv(li); ok {
				got = int(v)
			}
			w.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("loopback value %d", got)
	}
	s := met.Comm
	if s.LocalBytes == 0 || s.NetworkBytes != 0 {
		t.Errorf("loopback accounting: local=%d net=%d", s.LocalBytes, s.NetworkBytes)
	}
}

func TestEngineVoteWakeSemantics(t *testing.T) {
	// vertex 1 halts at superstep 1 but is woken by a message at 2
	part := partition.MustHash(2, 2)
	woke := false
	_, err := Run(Config{Part: part}, func(w *Worker) {
		ch := newRingChannel(w)
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			if w.Superstep() == 1 {
				if id == 0 {
					ch.send(1, 5)
				}
				w.VoteToHalt()
				return
			}
			if id == 1 {
				if _, ok := ch.recv(li); ok {
					woke = true
				}
			}
			w.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Error("halted vertex was not woken by message")
	}
}

func TestEngineNullChannelsOnly(t *testing.T) {
	part := partition.MustHash(6, 2)
	met, err := Run(Config{Part: part}, func(w *Worker) {
		w.Register(nullChannel{})
		w.Register(nullChannel{})
		w.Compute = func(li int) { w.VoteToHalt() }
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Comm.NetworkBytes != 0 {
		t.Errorf("null channels sent %d bytes", met.Comm.NetworkBytes)
	}
	if met.Comm.Rounds == 0 {
		t.Errorf("expected at least one round")
	}
}

func TestMetricsSimTime(t *testing.T) {
	m := Metrics{}
	m.WallTime = 5
	m.Comm.SimNetTime = 7
	if m.SimTime() != 12 {
		t.Errorf("SimTime=%v", m.SimTime())
	}
}
