package comm

import (
	"testing"
	"time"
)

func TestExchangerInOutAliasing(t *testing.T) {
	e := NewExchanger(2)
	e.Out(0, 1).WriteUint32(99)
	in := e.In(1, 0)
	if got := in.ReadUint32(); got != 99 {
		t.Errorf("got %d", got)
	}
}

func TestResetRow(t *testing.T) {
	e := NewExchanger(2)
	e.Out(0, 1).WriteUint32(5)
	e.ResetRow(0)
	if e.Out(0, 1).Len() != 0 {
		t.Errorf("buffer not reset")
	}
}

func TestShrinkPolicyReclaimsBurstCapacity(t *testing.T) {
	e := NewExchanger(2)
	// burst round: grow 0->1 far past shrinkMinRetain
	e.Out(0, 1).Extend(1 << 20)
	e.ResetRow(0)
	if c := e.Out(0, 1).Cap(); c < 1<<20 {
		t.Fatalf("burst did not grow the buffer: cap=%d", c)
	}
	// steady state: tiny rounds across two check windows (the first
	// window still contains the burst peak)
	for r := 0; r < 2*shrinkEvery; r++ {
		e.Out(0, 1).WriteUint32(1)
		e.ResetRow(0)
	}
	if c := e.Out(0, 1).Cap(); c >= 1<<20 {
		t.Errorf("burst capacity retained: cap=%d", c)
	}
}

func TestShrinkPolicyKeepsHotBuffers(t *testing.T) {
	e := NewExchanger(3)
	const hot = 4 * shrinkMinRetain
	// 0->1 carries a large frame every round; 0->2 bursts once to the
	// retained minimum and then idles
	e.Out(0, 2).Extend(shrinkMinRetain)
	for r := 0; r < 3*shrinkEvery; r++ {
		e.Out(0, 1).Extend(hot)
		e.ResetRow(0)
	}
	// the buffer is used at full capacity every round: it must keep it
	if c := e.Out(0, 1).Cap(); c < hot {
		t.Errorf("hot buffer was shrunk: cap=%d", c)
	}
	// a buffer no larger than the retained minimum is never shrunk
	if c := e.Out(0, 2).Cap(); c < shrinkMinRetain {
		t.Errorf("buffer at the retained minimum was shrunk: cap=%d", c)
	}
}

func TestCostModelRoundTime(t *testing.T) {
	if got := RoundTime(0); got != time.Millisecond {
		t.Errorf("an empty round costs %v, want the 1ms latency", got)
	}
	// one second of the paper's 750 Mbps link
	if got, want := RoundTime(750e6/8), time.Millisecond+time.Second; got != want {
		t.Errorf("got %v want %v", got, want)
	}
}

// Every round's buffers reach their reader, and Release empties them
// for the next.
func TestMultipleRounds(t *testing.T) {
	f := NewInProc(2)
	send, recv := f.Endpoint(0), f.Endpoint(1)
	for r := 0; r < 3; r++ {
		send.Out(1).WriteUint32(uint32(r))
		if err := send.Flush(); err != nil {
			t.Fatal(err)
		}
		in := recv.In(0)
		if in.Len() != 4 || in.ReadUint32() != uint32(r) {
			t.Fatalf("round %d: read %d bytes", r, in.Len())
		}
		send.Release()
		if n := send.Out(1).Len(); n != 0 {
			t.Fatalf("round %d: %d bytes left after Release", r, n)
		}
	}
}
