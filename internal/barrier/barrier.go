// Package barrier provides the M-party synchronization barrier of the
// BSP engines. The exchange loop crosses a barrier twice per exchange
// round, so the crossing itself is on the hot path: the in-process
// implementation (Shared) uses an atomic sense-reversing fast path
// (arrival counter + generation word) with a bounded spin, and falls
// back to a condition variable only for stragglers, so a round where
// all workers arrive together costs a handful of atomic operations and
// no mutex hand-offs.
//
// Barrier is an interface so the synchronization can leave the address
// space: internal/netcomm implements it as a message-based distributed
// barrier over the socket fabric's control connection, with the same
// abort semantics. Engines hold the interface and never assume their
// peers share memory.
//
// A barrier can be aborted: a worker that fails mid-superstep calls
// Abort to release every current and future waiter, which lets its
// peers observe the failure and return instead of deadlocking on a
// barrier the failed worker will never reach.
//
// The barrier itself records no timing: per-superstep barrier-wait
// (straggler skew) is measured by the engines around their Wait and
// AllReduce calls and reported through the internal/obs Observer seam.
// Keeping the crossing timing-free preserves the atomic fast path when
// no observer is attached.
package barrier

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrAborted is the sentinel a worker returns when it stopped because a
// peer aborted the shared barrier; JoinErrors filters it out so only
// root causes surface to the caller.
var ErrAborted = errors.New("barrier: aborted: another worker failed")

// ErrCancelled is what an engine Run returns when its Config.Cancel
// channel closed mid-run: the abort was requested by the caller, so it
// surfaces as this distinct sentinel instead of a worker failure (the
// job service maps it to the "cancelled" state).
var ErrCancelled = errors.New("run cancelled")

// Barrier synchronizes a fixed party of workers. All parties must make
// the same sequence of crossings (Wait and AllReduce calls at the same
// program points); the implementations only distinguish crossings by
// order of arrival.
type Barrier interface {
	// Wait blocks until all parties have arrived (returning true) or the
	// barrier is aborted (returning false, immediately, for every
	// current and future call).
	Wait() bool
	// AllReduce is a crossing that also reduces: every party posts v and
	// receives the sum of all parties' posts for this crossing. It
	// returns (0, false) once the barrier is aborted. Engines encode OR
	// as 0/1 posts and pack multiple small fields into the one word.
	AllReduce(v uint64) (uint64, bool)
	// Abort permanently releases the barrier: every waiter currently
	// blocked observes the release, and all subsequent crossings fail
	// without blocking.
	Abort()
	// Aborted reports whether Abort was called (locally or, for
	// distributed implementations, anywhere in the party).
	Aborted() bool
}

// The engines' end-of-round post: three 0/1 flags — again, active,
// halt, in that order from the low end — each summed in its own
// voteBits-wide field of the AllReduce word. A party has at most 65535
// workers (partition.MaxWorkers), so no field carries into the next.
const (
	voteBits = 16
	voteMask = uint64(1)<<voteBits - 1
)

// Vote packs one worker's post for the crossing that ends an exchange
// round: again asks for another round of this superstep, active says
// the worker still has an active vertex, halt that its algorithm
// requested a stop. Reduced, the one word decides both whether the
// superstep needs another round and — when it does not — whether the
// job is over, so termination costs no crossing of its own.
func Vote(again, active, halt bool) uint64 {
	var v uint64
	if again {
		v |= 1
	}
	if active {
		v |= 1 << voteBits
	}
	if halt {
		v |= 1 << (2 * voteBits)
	}
	return v
}

// Again reports whether any worker of a reduced Vote asked for another
// exchange round.
func Again(sum uint64) bool { return sum&voteMask != 0 }

// Terminated reports whether a reduced Vote ends the job: no worker has
// an active vertex left, or some worker requested a stop. Meaningful
// only when Again(sum) is false.
func Terminated(sum uint64) bool {
	return (sum>>voteBits)&voteMask == 0 || (sum>>(2*voteBits))&voteMask != 0
}

// JoinErrors joins all real worker errors in worker order, dropping
// abort echoes and duplicate messages (a symmetric failure every worker
// hits, like a superstep cap, surfaces once rather than once per
// worker).
func JoinErrors(errs []error) error {
	var real []error
	seen := make(map[string]bool)
	for _, err := range errs {
		if err == nil || errors.Is(err, ErrAborted) {
			continue
		}
		if msg := err.Error(); !seen[msg] {
			seen[msg] = true
			real = append(real, err)
		}
	}
	return errors.Join(real...)
}

// Shared is the in-process Barrier: a fixed party of n goroutines
// synchronizing through atomics in shared memory.
type Shared struct {
	n       int32
	arrived atomic.Int32
	gen     atomic.Uint64 // sense word: bumped once per completed crossing
	aborted atomic.Bool
	blocked atomic.Int32 // waiters parked on cond
	// acc holds the AllReduce accumulators, indexed by crossing parity:
	// crossing g posts into acc[g&1] while the last arriver of g clears
	// acc[(g+1)&1] before releasing, so consecutive crossings never
	// share a slot.
	acc  [2]atomic.Uint64
	mu   sync.Mutex
	cond *sync.Cond
}

// New creates an in-process barrier for n parties.
func New(n int) *Shared {
	b := &Shared{n: int32(n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// spinRounds bounds the fast-path spin before a waiter parks. Each
// iteration yields the processor, so stragglers cost scheduler quanta,
// not burned cores.
const spinRounds = 64

// Wait implements Barrier.
func (b *Shared) Wait() bool {
	if b.aborted.Load() {
		return false
	}
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		b.release(gen)
		return !b.aborted.Load()
	}
	return b.await(gen)
}

// AllReduce implements Barrier.
func (b *Shared) AllReduce(v uint64) (uint64, bool) {
	if b.aborted.Load() {
		return 0, false
	}
	gen := b.gen.Load()
	slot := &b.acc[gen&1]
	if v != 0 {
		slot.Add(v)
	}
	if b.arrived.Add(1) == b.n {
		b.release(gen)
		return slot.Load(), !b.aborted.Load()
	}
	ok := b.await(gen)
	return slot.Load(), ok
}

// release is the last arriver's duty: reset the counter and the next
// crossing's accumulator before bumping the sense word so no releasee
// can re-arrive or re-post early, then wake any parked stragglers.
func (b *Shared) release(gen uint64) {
	b.arrived.Store(0)
	b.acc[(gen+1)&1].Store(0)
	b.gen.Add(1)
	if b.blocked.Load() > 0 {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// await spins, then parks, until the crossing at gen is released or the
// barrier aborts; it reports !aborted.
func (b *Shared) await(gen uint64) bool {
	for i := 0; i < spinRounds; i++ {
		if b.gen.Load() != gen || b.aborted.Load() {
			return !b.aborted.Load()
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	b.blocked.Add(1)
	for b.gen.Load() == gen && !b.aborted.Load() {
		b.cond.Wait()
	}
	b.blocked.Add(-1)
	b.mu.Unlock()
	return !b.aborted.Load()
}

// WatchCancel aborts b when cancel closes — the engines' cancellation
// path: the abort releases every barrier crossing, so all workers
// unwind with ErrAborted. The returned closure stops the watcher and
// reports whether cancellation fired; the engines call it exactly once,
// after all workers have returned, and substitute ErrCancelled when no
// real worker error explains the abort. A nil cancel channel installs
// no watcher.
func WatchCancel(cancel <-chan struct{}, b Barrier) func() bool {
	if cancel == nil {
		return func() bool { return false }
	}
	var fired atomic.Bool
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-cancel:
			fired.Store(true)
			b.Abort()
		case <-stop:
		}
	}()
	return func() bool {
		close(stop)
		<-done
		return fired.Load()
	}
}

// Abort implements Barrier.
func (b *Shared) Abort() {
	b.aborted.Store(true)
	b.gen.Add(1) // release spinners and park-loop checks
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Aborted implements Barrier.
func (b *Shared) Aborted() bool { return b.aborted.Load() }
