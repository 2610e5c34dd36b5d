package engine

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/barrier"
	"repro/internal/comm"
	"repro/internal/netcomm"
	"repro/internal/partition"
	"repro/internal/pregel"
	"repro/internal/ser"
)

// The failure paths — abort, cancel, superstep and round caps, corrupt
// frames, asymmetric set-up failure — belong to the superstep driver
// both engines run on. Every scenario here runs on the in-process fabric
// and on the socket fabric (hub + one client per worker, in-process over
// TCP loopback), under the channel engine and the Pregel baseline, as
// subtests <fabric>/<engine>, and requires the same outcome everywhere:
// the joined error a coordinator assembles from the per-process Runs
// must match what the shared-memory Run reports.

// job runs one process's share of a scenario under env.
type job func(env Config) (Metrics, error)

// fabricCase runs a job as every process of the party on one fabric
// arrangement and returns the coordinator view: the joined error and
// the least superstep count any process reached.
type fabricCase struct {
	name string
	run  func(t *testing.T, env Config, j job) (Metrics, error)
}

func bothFabrics() []fabricCase {
	return []fabricCase{
		{"inproc", func(t *testing.T, env Config, j job) (Metrics, error) { return j(env) }},
		{"socket", func(t *testing.T, env Config, j job) (Metrics, error) {
			m := env.Part.NumWorkers()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hub := netcomm.NewHub(m, comm.CostModel{}, ln)
			defer hub.Close()
			clients := make([]*netcomm.Client, m)
			for i := 0; i < m; i++ {
				if clients[i], err = netcomm.Dial("tcp", ln.Addr().String(), i, i, m); err != nil {
					t.Fatal(err)
				}
				defer clients[i].Close()
			}
			if err := hub.WaitJoined(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			mets := make([]Metrics, m)
			errs := make([]error, m)
			var wg sync.WaitGroup
			for i := 0; i < m; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := env
					c.Fabric = clients[i]
					mets[i], errs[i] = j(c)
				}(i)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("socket-fabric workers hung")
			}
			met := mets[0]
			for _, mt := range mets[1:] {
				met.Supersteps = min(met.Supersteps, mt.Supersteps)
			}
			// coordinator view: join per-process errors, dropping echoes;
			// like the engines, substitute the cancel sentinel when it is
			// among the causes
			joined := barrier.JoinErrors(errs)
			if joined == nil {
				for _, e := range errs {
					if errors.Is(e, barrier.ErrCancelled) {
						return met, barrier.ErrCancelled
					}
				}
			}
			return met, joined
		}},
	}
}

// eachCase runs a scenario on every fabric and engine. newCase makes a
// case's environment and its job on the named engine once per case, so
// what the case shares (a cancel channel) is shared by its processes and
// by nothing else; check judges the coordinator-view outcome.
func eachCase(t *testing.T, newCase func(eng string) (Config, job), check func(t *testing.T, met Metrics, err error)) {
	for _, fc := range bothFabrics() {
		t.Run(fc.name, func(t *testing.T) {
			for _, eng := range []string{"channel", "pregel"} {
				t.Run(eng, func(t *testing.T) {
					env, j := newCase(eng)
					met, err := fc.run(t, env, j)
					check(t, met, err)
				})
			}
		})
	}
}

// pw is the baseline worker of these scenarios: uint32 messages and a
// sum aggregator, which gives every superstep a second round.
type pw = pregel.Worker[uint32, struct{}, uint32]

func runPregel(env Config, codec ser.Codec[uint32], setup func(w *pw)) (Metrics, error) {
	return pregel.Run(pregel.Config[uint32, struct{}, uint32]{Env: env, MsgCodec: codec,
		AggCombine: func(a, b uint32) uint32 { return a + b }, AggCodec: ser.Uint32Codec{}}, setup)
}

// jobOf picks a scenario's job on the named engine.
func jobOf(eng string, channel func(w *Worker), baseline func(w *pw)) job {
	if eng == "channel" {
		return func(env Config) (Metrics, error) { return Run(env, channel) }
	}
	return func(env Config) (Metrics, error) { return runPregel(env, ser.Uint32Codec{}, baseline) }
}

// A worker that never stops asking for rounds must trip MaxRoundsPerStep:
// a stuck channel on the channel engine, the aggregator's second round
// against a cap of one on the baseline.
func TestBothFabricsStuckChannelAborts(t *testing.T) {
	eachCase(t, func(eng string) (Config, job) {
		env := Config{Part: partition.MustHash(4, 2), MaxRoundsPerStep: 50}
		if eng == "pregel" {
			env.MaxRoundsPerStep = 1
		}
		return env, jobOf(eng, func(w *Worker) {
			w.Register(stuckChannel{})
			w.Compute = func(li int) { w.VoteToHalt() }
		}, func(w *pw) {
			w.Compute = func(li int, _ []uint32) { w.VoteToHalt() }
		})
	}, func(t *testing.T, _ Metrics, err error) {
		if err == nil || !strings.Contains(err.Error(), "MaxRoundsPerStep") {
			t.Fatalf("expected MaxRoundsPerStep error, got %v", err)
		}
	})
}

// An asymmetric setup failure — one worker errors before the first
// barrier — must abort the peers instead of deadlocking them and surface
// only the root cause, with no abort echoes in the joined error and no
// superstep counted.
func TestBothFabricsAsymmetricSetupFailure(t *testing.T) {
	eachCase(t, func(eng string) (Config, job) {
		return Config{Part: partition.MustHash(4, 2)}, jobOf(eng, func(w *Worker) {
			w.Register(nullChannel{})
			if w.WorkerID() != 1 {
				w.Compute = func(li int) { w.VoteToHalt() }
			}
		}, func(w *pw) {
			if w.WorkerID() != 1 {
				w.Compute = func(li int, _ []uint32) { w.VoteToHalt() }
			}
		})
	}, func(t *testing.T, met Metrics, err error) {
		if err == nil || !strings.Contains(err.Error(), "worker 1: setup did not install Compute") {
			t.Fatalf("expected worker 1 setup error, got %v", err)
		}
		if strings.Contains(err.Error(), "aborted") {
			t.Errorf("abort echo leaked into the joined error: %v", err)
		}
		if met.Supersteps != 0 {
			t.Errorf("supersteps=%d want 0 (minimum reached)", met.Supersteps)
		}
	})
}

// A symmetric failure (superstep cap) must surface once, not once per
// worker or process.
func TestBothFabricsSymmetricErrorDedup(t *testing.T) {
	eachCase(t, func(eng string) (Config, job) {
		return Config{Part: partition.MustHash(4, 2), MaxSupersteps: 3}, jobOf(eng, func(w *Worker) {
			w.Register(nullChannel{})
			w.Compute = func(li int) {} // stay active forever
		}, func(w *pw) {
			w.Compute = func(li int, _ []uint32) {}
		})
	}, func(t *testing.T, _ Metrics, err error) {
		if err == nil {
			t.Fatal("expected MaxSupersteps error")
		}
		if got := strings.Count(err.Error(), "MaxSupersteps"); got != 1 {
			t.Errorf("cause appears %d times, want 1: %v", got, err)
		}
	})
}

// Cancellation mid-run must unwind every worker through the aborted
// barrier and surface ErrCancelled, not a deadlock and not a worker
// failure. On the socket fabric the cancel lands on one process's Config
// and propagates to the rest over the control connection.
func TestBothFabricsCancelMidRun(t *testing.T) {
	eachCase(t, func(eng string) (Config, job) {
		cancel := make(chan struct{})
		var once sync.Once
		// stay active forever; worker 0 pulls the plug at step 100
		pull := func(id, li, step int) {
			if id == 0 && li == 0 && step == 100 {
				once.Do(func() { close(cancel) })
			}
		}
		env := Config{Part: partition.MustHash(8, 4), Cancel: cancel, MaxSupersteps: 1 << 30}
		return env, jobOf(eng, func(w *Worker) {
			w.Register(nullChannel{})
			w.Compute = func(li int) { pull(w.WorkerID(), li, w.Superstep()) }
		}, func(w *pw) {
			w.Compute = func(li int, _ []uint32) { pull(w.WorkerID(), li, w.Superstep()) }
		})
	}, func(t *testing.T, _ Metrics, err error) {
		if !errors.Is(err, barrier.ErrCancelled) {
			t.Fatalf("expected ErrCancelled, got %v", err)
		}
	})
}

// A healthy run must terminate identically everywhere: every vertex
// halts in superstep 1, and the traffic of that superstep wakes some of
// them for a second one.
func TestBothFabricsHealthyTermination(t *testing.T) {
	eachCase(t, func(eng string) (Config, job) {
		return Config{Part: partition.MustHash(6, 3)}, jobOf(eng, func(w *Worker) {
			w.Register(&deactivatingChannel{w: w})
			w.Compute = func(li int) { w.VoteToHalt() }
		}, func(w *pw) {
			w.Compute = func(li int, _ []uint32) {
				if w.Superstep() == 1 {
					w.Send((w.GlobalID(li)+1)%6, 1) // to the next worker
				}
				w.VoteToHalt()
			}
		})
	}, func(t *testing.T, met Metrics, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if met.Supersteps != 2 {
			t.Errorf("supersteps=%d want 2", met.Supersteps)
		}
	})
}

// overreadChannel writes a 1-byte frame but reads 4 bytes back: the
// decode panic on the short payload must surface as a worker error
// ("corrupt frame content"), never crash the process.
type overreadChannel struct{}

func (overreadChannel) Initialize()                      {}
func (overreadChannel) AfterCompute()                    {}
func (overreadChannel) Serialize(dst int, b *ser.Buffer) { b.WriteUint8(1) }
func (overreadChannel) Deserialize(src int, b *ser.Buffer) {
	_ = b.ReadUint32() // reads past the 1-byte payload
}
func (overreadChannel) Again() bool { return false }

// overreadCodec is the baseline's version: one byte out, four back in.
var overreadCodec = ser.FuncCodec[uint32]{
	Enc: func(b *ser.Buffer, v uint32) { b.WriteUint8(uint8(v)) },
	Dec: func(b *ser.Buffer) uint32 { return b.ReadUint32() },
}

func TestBothFabricsCorruptPayloadFailsNotPanics(t *testing.T) {
	eachCase(t, func(eng string) (Config, job) {
		env := Config{Part: partition.MustHash(4, 2)}
		if eng == "channel" {
			return env, jobOf(eng, func(w *Worker) {
				w.Register(overreadChannel{})
				w.Compute = func(li int) { w.VoteToHalt() }
			}, nil)
		}
		return env, func(env Config) (Metrics, error) {
			return runPregel(env, overreadCodec, func(w *pw) {
				w.Compute = func(li int, _ []uint32) {
					w.Send((w.GlobalID(li)+1)%4, 1) // to the other worker
					w.VoteToHalt()
				}
			})
		}
	}, func(t *testing.T, _ Metrics, err error) {
		if err == nil || !strings.Contains(err.Error(), "corrupt frame content") {
			t.Fatalf("expected corrupt-frame error, got %v", err)
		}
	})
}
