package repro

// The paper's tables as benchmarks (§V). Every Table sub-benchmark is an
// entry of harness.Entries run at harness.ScaleBench; each reports,
// besides wall ns/op, three exact columns: the modeled network time of
// the paper's cluster (model-ms/op: per exchange round 1 ms plus the
// busiest worker's off-worker bytes at 750 Mbps), the network volume
// (msgMB/op) and the superstep count (steps/op):
//
//	go test -run '^$' -bench 'Table[4-7]' .
//
//	BenchmarkTable4/*   — Table IV  (pregel vs channel, 6 algorithms)
//	BenchmarkTable5/*   — Table V   (the three optimized channels)
//	BenchmarkTable6/*   — Table VI  (S-V channel combinations)
//	BenchmarkTable7/*   — Table VII (Min-Label SCC)

import (
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/harness"
	"repro/internal/netcomm"
)

var (
	benchDatasets = sync.OnceValue(func() *harness.Datasets { return harness.Load(harness.ScaleBench) })
	benchRunner   = sync.OnceValue(func() *harness.Runner { return harness.NewRunner(benchDatasets()) })
)

func report(b *testing.B, m algorithms.Metrics) {
	b.ReportMetric(float64(m.Model)/1e6, "model-ms/op")
	b.ReportMetric(float64(m.NetBytes)/1e6, "msgMB/op")
	b.ReportMetric(float64(m.Supersteps), "steps/op")
}

// benchEntries runs, in table order, the entries whose sub-benchmark
// path starts with bench + "/". Each entry's input is resolved before
// the timer starts and shared by every entry on it.
func benchEntries(b *testing.B, bench string) {
	for _, e := range harness.Entries {
		name, ok := strings.CutPrefix(e.Bench, bench+"/")
		if !ok {
			continue
		}
		b.Run(name, func(b *testing.B) {
			run := benchRunner().Prepare(e)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := run()
				if err != nil {
					b.Fatal(err)
				}
				report(b, res.Metrics)
			}
		})
	}
}

func BenchmarkTable4(b *testing.B) { benchEntries(b, "Table4") }
func BenchmarkTable5(b *testing.B) { benchEntries(b, "Table5") }
func BenchmarkTable6(b *testing.B) { benchEntries(b, "Table6") }
func BenchmarkTable7(b *testing.B) { benchEntries(b, "Table7") }

// --- Distributed exchange over the hub relay ---

// BenchmarkDistributedExchange pins the socket fabric's exchange round:
// 4 socket-fabric workers run all-to-all exchange rounds (the engines'
// exact per-round protocol: Flush, barrier, consume, reducing crossing,
// release) through the hub. hubB/op is the frame volume transiting the
// coordinator per round.
//
// hub is one worker per client over loopback TCP with 64 KiB frames,
// so the whole exchange crosses the hub. hub-2x2 is the shape graphd
// -worker-procs 2 runs: two workers per client, over Unix sockets,
// ~13 KiB frames (pr-scatter-dist's). Besides hubB/op — a third below
// the round's volume, the co-hosted share that never leaves a process —
// it reports what a round costs the hub in conn-level writes and reads,
// counted by a wrapping listener (reads/op includes the run's two hello
// reads and moves a little with how the kernel slices a write;
// writes/op does not).
func BenchmarkDistributedExchange(b *testing.B) {
	b.Run("hub", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		benchExchange(b, ln, 4, 64<<10)
	})
	b.Run("hub-2x2", func(b *testing.B) {
		inner, err := net.Listen("unix", filepath.Join(b.TempDir(), "hub.sock"))
		if err != nil {
			b.Fatal(err)
		}
		ln := &countingListener{Listener: inner}
		benchExchange(b, ln, 2, 13<<10)
		b.ReportMetric(float64(ln.writes.Load())/float64(b.N), "writes/op")
		b.ReportMetric(float64(ln.reads.Load())/float64(b.N), "reads/op")
	})
}

// countingListener counts the conn-level writes and (non-empty) reads
// of every connection it accepts: the hub's side of the wire.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.l.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// benchExchange runs b.N exchange rounds among 4 workers spread over
// procs clients of a hub serving on ln, every worker sending a frame of
// the given size to every other.
func benchExchange(b *testing.B, ln net.Listener, procs, frame int) {
	const m = 4
	per := m / procs
	hub := netcomm.NewHub(m, comm.CostModel{}, ln)
	defer hub.Close()
	clients := make([]*netcomm.Client, procs)
	for i := range clients {
		c, err := netcomm.Dial(ln.Addr().Network(), ln.Addr().String(), i*per, (i+1)*per-1, m)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	if err := hub.WaitJoined(time.Minute); err != nil {
		b.Fatal(err)
	}

	payload := make([]byte, frame)
	b.SetBytes(int64(m * (m - 1) * frame))
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := clients[i/per].Endpoint(i)
			bar := clients[i/per].Barrier()
			for n := 0; n < b.N; n++ {
				for dst := 0; dst < m; dst++ {
					if dst != i {
						copy(ep.Out(dst).Extend(frame), payload)
					}
				}
				if err := ep.Flush(); err != nil {
					b.Error(err)
					return
				}
				if !bar.Wait() {
					b.Error("barrier aborted")
					return
				}
				for src := 0; src < m; src++ {
					if src != i {
						ep.In(src)
					}
				}
				if _, ok := bar.AllReduce(0); !ok {
					b.Error("reduce aborted")
					return
				}
				ep.Release()
			}
		}(i)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(hub.DataBytes())/float64(b.N), "hubB/op")
}
