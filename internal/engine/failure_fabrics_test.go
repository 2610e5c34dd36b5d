package engine

import (
	"errors"
	"net"
	"slices"
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
// sum aggregator, whose partials ride round 1's crossing.
type pw = pregel.Worker[uint32, struct{}, uint32]

func runPregel(env Config, codec ser.Codec[uint32], setup func(w *pw)) (Metrics, error) {
	return pregel.Run(pregel.Config[uint32, struct{}, uint32]{Env: env, MsgCodec: codec,
		AggCombine: func(a, b uint32) uint32 { return a + b }, AggCodec: ser.Uint32Codec{}}, setup)
}

// noBytes encodes struct{} as nothing.
type noBytes struct{}

func (noBytes) Encode(*ser.Buffer, struct{}) {}
func (noBytes) Decode(*ser.Buffer) struct{}  { return struct{}{} }

// jobOf picks a scenario's job on the named engine.
func jobOf(eng string, channel func(w *Worker), baseline func(w *pw)) job {
	if eng == "channel" {
		return func(env Config) (Metrics, error) { return Run(env, channel) }
	}
	return func(env Config) (Metrics, error) { return runPregel(env, ser.Uint32Codec{}, baseline) }
}

// A worker that never stops asking for rounds must trip MaxRoundsPerStep:
// a stuck channel on the channel engine, the responder's second round
// against a cap of one on the baseline.
func TestBothFabricsStuckChannelAborts(t *testing.T) {
	eachCase(t, func(eng string) (Config, job) {
		env := Config{Part: partition.MustHash(4, 2), MaxRoundsPerStep: 50}
		if eng == "pregel" {
			env.MaxRoundsPerStep = 1
			return env, func(env Config) (Metrics, error) {
				return pregel.Run(pregel.Config[uint32, struct{}, uint32]{Env: env, MsgCodec: ser.Uint32Codec{},
					Responder: func(*pw, int) struct{} { return struct{}{} }, RespCodec: noBytes{}},
					func(w *pw) { w.Compute = func(li int, _ []uint32) { w.VoteToHalt() } })
			}
		}
		return env, jobOf(eng, func(w *Worker) {
			w.Register(stuckChannel{})
			w.Compute = func(li int) { w.VoteToHalt() }
		}, nil)
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

// TestEngineRejectsHostileFrameStream runs worker 1 of a 2-worker job
// over the socket fabric while worker 0 is a scripted peer that sends it
// one hand-made round-1 stream of (channel id, frame) envelopes. A
// channel id past the registry, a dangling uvarint, a truncated frame
// header and a frame length past the stream must each fail the job with
// a worker error from worker 0 — never take the process down — on their
// own and after a good frame, where the report must not blame the
// channel that decoded that frame.
func TestEngineRejectsHostileFrameStream(t *testing.T) {
	good := []byte{0, 1, 0, 0, 0, 9} // channel 0, a 1-byte frame
	for _, tc := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"channel id past the registry", []byte{1, 0, 0, 0, 0}, "index 1 claimed, must be below 1"},
		{"dangling uvarint", []byte{0x80}, "invalid uvarint"},
		{"truncated frame header", []byte{0, 1, 0}, "buffer underflow: need 4 bytes, have 2"},
		{"frame length past the stream", []byte{0, 100, 0, 0, 0, 9}, "buffer underflow: need 100 bytes, have 1"},
	} {
		for _, after := range []bool{false, true} {
			name, stream := tc.name, tc.stream
			if after {
				name, stream = tc.name+" after a good frame", append(slices.Clip(good), stream...)
			}
			t.Run(name, func(t *testing.T) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				hub := netcomm.NewHub(2, comm.CostModel{}, ln)
				defer hub.Close()
				var clients [2]*netcomm.Client
				for i := range clients {
					if clients[i], err = netcomm.Dial("tcp", ln.Addr().String(), i, i, 2); err != nil {
						t.Fatal(err)
					}
					defer clients[i].Close()
				}
				if err := hub.WaitJoined(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					_, err := Run(Config{Part: partition.MustHash(4, 2), Fabric: clients[1]}, func(w *Worker) {
						w.Register(nullChannel{})
						w.Compute = func(li int) { w.VoteToHalt() }
					})
					done <- err
				}()

				ep, bar := clients[0].Endpoint(0), clients[0].Barrier()
				if !bar.Wait() { // every worker finished setup
					t.Fatal("set-up crossing aborted")
				}
				copy(ep.Out(1).Extend(len(stream)), stream)
				if err := ep.Flush(); err != nil {
					t.Fatal(err)
				}
				bar.Wait()
				if _, ok := bar.AllReduce(0); ok {
					t.Fatal("the scripted round was accepted")
				}
				select {
				case err = <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("worker 1 hung")
				}
				if err == nil || !strings.Contains(err.Error(), "engine: worker 1: corrupt frame content from worker 0: ser: ") ||
					!strings.Contains(err.Error(), tc.want) {
					t.Fatalf("got %v, want a worker 1 error from worker 0 naming no channel and containing %q", err, tc.want)
				}
			})
		}
	}
}
