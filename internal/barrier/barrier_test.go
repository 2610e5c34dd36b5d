package barrier

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Lockstep correctness: no party may start phase k+1 before every party
// finished phase k.
func TestBarrierLockstep(t *testing.T) {
	const n, rounds = 4, 200
	b := New(n)
	var phase [n]atomic.Int32
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				phase[p].Store(int32(r))
				if !b.Wait() {
					t.Errorf("party %d: unexpected abort", p)
					return
				}
				// after the barrier, nobody may still be in phase r-1
				for q := 0; q < n; q++ {
					if got := phase[q].Load(); got < int32(r) {
						t.Errorf("party %d phase %d while %d crossed round %d", q, got, p, r)
						return
					}
				}
				if !b.Wait() {
					t.Errorf("party %d: unexpected abort", p)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

func TestBarrierAbortReleasesWaiters(t *testing.T) {
	const n = 3
	b := New(n)
	results := make(chan bool, n-1)
	for p := 0; p < n-1; p++ {
		go func() { results <- b.Wait() }()
	}
	// the n-th party never arrives; it aborts instead
	b.Abort()
	for p := 0; p < n-1; p++ {
		if <-results {
			t.Errorf("waiter %d: Wait returned true after abort", p)
		}
	}
	// future waits return false immediately
	if b.Wait() {
		t.Error("post-abort Wait returned true")
	}
}

func TestJoinErrors(t *testing.T) {
	boom := errors.New("boom")
	dup := errors.New("same")
	if err := JoinErrors([]error{nil, nil}); err != nil {
		t.Errorf("all-nil join: %v", err)
	}
	if err := JoinErrors([]error{ErrAborted, nil, ErrAborted}); err != nil {
		t.Errorf("abort-only join: %v", err)
	}
	err := JoinErrors([]error{ErrAborted, boom, nil, dup, fmt.Errorf("same")})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("joined error %v does not wrap boom", err)
	}
	want := "boom\nsame"
	if err.Error() != want {
		t.Errorf("joined error %q want %q (dedup + order)", err.Error(), want)
	}
}

// AllReduce must deliver the exact sum of all parties' posts at every
// crossing, including back-to-back crossings exercising both
// accumulator slots.
func TestBarrierAllReduceSums(t *testing.T) {
	const n, rounds = 5, 300
	b := New(n)
	var wg sync.WaitGroup
	errCh := make(chan string, n)
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v := uint64(p + r*n)
				want := uint64(0)
				for q := 0; q < n; q++ {
					want += uint64(q + r*n)
				}
				got, ok := b.AllReduce(v)
				if !ok || got != want {
					errCh <- fmt.Sprintf("party %d round %d: got %d ok=%v want %d", p, r, got, ok, want)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errCh)
	for msg := range errCh {
		t.Error(msg)
	}
}

// Wait and AllReduce crossings interleave (the engines alternate them
// every exchange round).
func TestBarrierMixedCrossings(t *testing.T) {
	const n, rounds = 3, 100
	b := New(n)
	var wg sync.WaitGroup
	bad := make(chan string, n)
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if !b.Wait() {
					bad <- "unexpected abort in Wait"
					return
				}
				got, ok := b.AllReduce(1)
				if !ok || got != n {
					bad <- fmt.Sprintf("round %d: sum=%d ok=%v want %d", r, got, ok, n)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
}

// Abort must release AllReduce waiters with ok=false, and Aborted must
// report it.
func TestBarrierAllReduceAbort(t *testing.T) {
	const n = 3
	b := New(n)
	results := make(chan bool, n-1)
	for p := 0; p < n-1; p++ {
		go func() {
			_, ok := b.AllReduce(7)
			results <- ok
		}()
	}
	b.Abort()
	for p := 0; p < n-1; p++ {
		if <-results {
			t.Errorf("AllReduce returned ok after abort")
		}
	}
	if !b.Aborted() {
		t.Error("Aborted() = false after Abort")
	}
	if _, ok := b.AllReduce(1); ok {
		t.Error("post-abort AllReduce returned ok")
	}
}

// The three flags of a Vote are summed in one word across the party:
// each must read back as the OR of its posts, whatever the others hold,
// up to the largest party there can be (65535 workers, every flag set
// by all of them — a field that carried would flip its neighbour).
func TestVoteFieldsReduceIndependently(t *testing.T) {
	const maxParty = 1<<16 - 1
	for _, party := range []int{1, 2, 4, maxParty} {
		for mask := 0; mask < 8; mask++ {
			again, active, halt := mask&1 != 0, mask&2 != 0, mask&4 != 0
			// every worker posts the flags of mask; then only the last one does
			for _, posters := range []int{party, 1} {
				var sum uint64
				for w := 0; w < party; w++ {
					if w < posters {
						sum += Vote(again, active, halt)
					} else {
						sum += Vote(false, false, false)
					}
				}
				if got := Again(sum); got != again {
					t.Errorf("party %d, %d posting (%v,%v,%v): Again = %v", party, posters, again, active, halt, got)
				}
				if got, want := Terminated(sum), !active || halt; got != want {
					t.Errorf("party %d, %d posting (%v,%v,%v): Terminated = %v, want %v", party, posters, again, active, halt, got, want)
				}
			}
		}
	}
}
