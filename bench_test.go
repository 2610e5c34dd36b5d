package repro

// One benchmark per table/figure of the paper's evaluation (§V), plus
// ablation benches for the design choices DESIGN.md calls out. Each
// bench reports, besides ns/op, the simulated distributed runtime
// (sim-ms/op: wall time + modeled network time) and the network volume
// (msgMB/op), which are the two columns of the paper's tables.
//
//	BenchmarkTable4/*   — Table IV  (pregel vs channel, 6 algorithms)
//	BenchmarkTable5/*   — Table V   (the three optimized channels)
//	BenchmarkTable6/*   — Table VI  (S-V channel combinations)
//	BenchmarkTable7/*   — Table VII (Min-Label SCC)
//	BenchmarkAblation*  — design-choice ablations

import (
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/channel"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/netcomm"
	"repro/internal/partition"
	"repro/internal/pregel"
	"repro/internal/ser"
)

var (
	dsOnce sync.Once
	ds     *harness.Datasets
)

// benchData generates moderate-size datasets once (between ScaleTest
// and ScaleBench, sized so the full -bench=. sweep completes on a
// laptop core).
func benchData() *harness.Datasets {
	dsOnce.Do(func() {
		ds = &harness.Datasets{
			Wiki:     graph.RMAT(11, 8, 101, graph.RMATOptions{NoSelfLoops: true}),
			WebUK:    graph.RMAT(12, 10, 102, graph.RMATOptions{NoSelfLoops: true}),
			Facebook: graph.SocialRMAT(11, 2, 103),
			Twitter:  graph.SocialRMAT(10, 16, 104),
			Chain:    graph.Chain(20000),
			Tree:     graph.RandomTree(20000, 105),
			Road:     graph.Grid(80, 80, 1000, 106),
			RMATW:    graph.Undirectify(graph.RMAT(10, 8, 107, graph.RMATOptions{Weighted: true, MaxWeight: 1000, NoSelfLoops: true})),
		}
	})
	return ds
}

// fragment cache: benchmarks measure superstep time on pre-resolved
// shared-nothing fragments, not fragment construction, mirroring how
// the catalog serves jobs.
var (
	fragMu    sync.Mutex
	fragCache = map[fragKey]*frag.Fragments{}
)

type fragKey struct {
	g *graph.Graph
	p *partition.Partition
}

func opts(g *graph.Graph, p *partition.Partition) algorithms.Options {
	fragMu.Lock()
	defer fragMu.Unlock()
	fs, ok := fragCache[fragKey{g, p}]
	if !ok {
		fs = frag.Build(g, p)
		fragCache[fragKey{g, p}] = fs
	}
	return algorithms.Options{Part: p, Frags: fs, MaxSupersteps: 200000}
}

func reportC(b *testing.B, m engine.Metrics, err error) {
	b.Helper()
	b.ReportAllocs()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.SimTime().Milliseconds()), "sim-ms/op")
	b.ReportMetric(float64(m.Comm.NetworkBytes)/1e6, "msgMB/op")
	b.ReportMetric(float64(m.Supersteps), "steps/op")
}

func reportP(b *testing.B, m pregel.Metrics, err error) {
	b.Helper()
	b.ReportAllocs()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.SimTime().Milliseconds()), "sim-ms/op")
	b.ReportMetric(float64(m.Comm.NetworkBytes)/1e6, "msgMB/op")
	b.ReportMetric(float64(m.Supersteps), "steps/op")
}

const prIters = 30

// --- Table IV: basic implementations, pregel vs channel ---

func BenchmarkTable4(b *testing.B) {
	d := benchData()
	und := graph.Undirectify(d.Wiki)
	b.Run("PR/pregel", func(b *testing.B) {
		p := harness.HashPart(d.WebUK)
		o := opts(d.WebUK, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankPregel(d.WebUK, o, prIters)
			reportP(b, m, err)
		}
	})
	b.Run("PR/channel", func(b *testing.B) {
		p := harness.HashPart(d.WebUK)
		o := opts(d.WebUK, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankChannel(d.WebUK, o, prIters)
			reportC(b, m, err)
		}
	})
	b.Run("WCC/pregel", func(b *testing.B) {
		p := harness.HashPart(und)
		o := opts(und, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.WCCPregel(und, o)
			reportP(b, m, err)
		}
	})
	b.Run("WCC/channel", func(b *testing.B) {
		p := harness.HashPart(und)
		o := opts(und, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.WCCChannel(und, o)
			reportC(b, m, err)
		}
	})
	b.Run("PJ/pregel", func(b *testing.B) {
		p := harness.HashPart(d.Chain)
		o := opts(d.Chain, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PointerJumpPregel(d.Chain, o)
			reportP(b, m, err)
		}
	})
	b.Run("PJ/channel", func(b *testing.B) {
		p := harness.HashPart(d.Chain)
		o := opts(d.Chain, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PointerJumpChannel(d.Chain, o)
			reportC(b, m, err)
		}
	})
	b.Run("SV/pregel", func(b *testing.B) {
		p := harness.HashPart(d.Facebook)
		o := opts(d.Facebook, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.SVPregel(d.Facebook, o)
			reportP(b, m, err)
		}
	})
	b.Run("SV/channel", func(b *testing.B) {
		p := harness.HashPart(d.Facebook)
		o := opts(d.Facebook, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.SVChannel(d.Facebook, o)
			reportC(b, m, err)
		}
	})
	b.Run("MSF/pregel", func(b *testing.B) {
		p := harness.HashPart(d.Road)
		o := opts(d.Road, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.MSFPregel(d.Road, o)
			reportP(b, m, err)
		}
	})
	b.Run("MSF/channel", func(b *testing.B) {
		p := harness.HashPart(d.Road)
		o := opts(d.Road, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.MSFChannel(d.Road, o)
			reportC(b, m, err)
		}
	})
	b.Run("SCC/pregel", func(b *testing.B) {
		p := harness.HashPart(d.Wiki)
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.SCCPregel(d.Wiki, o)
			reportP(b, m, err)
		}
	})
	b.Run("SCC/channel", func(b *testing.B) {
		p := harness.HashPart(d.Wiki)
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.SCCChannel(d.Wiki, o)
			reportC(b, m, err)
		}
	})
}

// --- Table V: the three optimized channels ---

func BenchmarkTable5(b *testing.B) {
	d := benchData()
	b.Run("ScatterCombine/pregel-basic", func(b *testing.B) {
		p := harness.HashPart(d.Wiki)
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankPregel(d.Wiki, o, prIters)
			reportP(b, m, err)
		}
	})
	b.Run("ScatterCombine/pregel-ghost", func(b *testing.B) {
		p := harness.HashPart(d.Wiki)
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankPregelGhost(d.Wiki, o, prIters)
			reportP(b, m, err)
		}
	})
	b.Run("ScatterCombine/channel-basic", func(b *testing.B) {
		p := harness.HashPart(d.Wiki)
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankChannel(d.Wiki, o, prIters)
			reportC(b, m, err)
		}
	})
	b.Run("ScatterCombine/channel-scatter", func(b *testing.B) {
		p := harness.HashPart(d.Wiki)
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankScatter(d.Wiki, o, prIters)
			reportC(b, m, err)
		}
	})
	b.Run("RequestRespond/pregel-basic", func(b *testing.B) {
		p := harness.HashPart(d.Tree)
		o := opts(d.Tree, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PointerJumpPregel(d.Tree, o)
			reportP(b, m, err)
		}
	})
	b.Run("RequestRespond/pregel-reqresp", func(b *testing.B) {
		p := harness.HashPart(d.Tree)
		o := opts(d.Tree, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PointerJumpPregelReqResp(d.Tree, o)
			reportP(b, m, err)
		}
	})
	b.Run("RequestRespond/channel-basic", func(b *testing.B) {
		p := harness.HashPart(d.Tree)
		o := opts(d.Tree, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PointerJumpChannel(d.Tree, o)
			reportC(b, m, err)
		}
	})
	b.Run("RequestRespond/channel-reqresp", func(b *testing.B) {
		p := harness.HashPart(d.Tree)
		o := opts(d.Tree, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PointerJumpReqResp(d.Tree, o)
			reportC(b, m, err)
		}
	})

	und := graph.Undirectify(d.Wiki)
	hash := harness.HashPart(und)
	greedy := harness.GreedyPart(und)
	for _, t := range []struct {
		name string
		p    *partition.Partition
	}{{"hash", hash}, {"partitioned", greedy}} {
		p := t.p
		b.Run("Propagation/"+t.name+"/pregel-basic", func(b *testing.B) {
			o := opts(und, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.WCCPregel(und, o)
				reportP(b, m, err)
			}
		})
		b.Run("Propagation/"+t.name+"/blogel", func(b *testing.B) {
			o := opts(und, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.WCCBlogel(und, o)
				reportC(b, m, err)
			}
		})
		b.Run("Propagation/"+t.name+"/channel-basic", func(b *testing.B) {
			o := opts(und, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.WCCChannel(und, o)
				reportC(b, m, err)
			}
		})
		b.Run("Propagation/"+t.name+"/channel-prop", func(b *testing.B) {
			o := opts(und, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.WCCPropagation(und, o)
				reportC(b, m, err)
			}
		})
	}
}

// --- Table VI: S-V channel combinations ---

func BenchmarkTable6(b *testing.B) {
	d := benchData()
	for _, t := range []struct {
		name string
		g    *graph.Graph
	}{{"Facebook", d.Facebook}, {"Twitter", d.Twitter}} {
		g := t.g
		p := harness.HashPart(g)
		b.Run(t.name+"/1-pregel-reqresp", func(b *testing.B) {
			o := opts(g, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.SVPregelReqResp(g, o)
				reportP(b, m, err)
			}
		})
		b.Run(t.name+"/2-channel-basic", func(b *testing.B) {
			o := opts(g, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.SVChannel(g, o)
				reportC(b, m, err)
			}
		})
		b.Run(t.name+"/3-channel-reqresp", func(b *testing.B) {
			o := opts(g, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.SVReqResp(g, o)
				reportC(b, m, err)
			}
		})
		b.Run(t.name+"/4-channel-scatter", func(b *testing.B) {
			o := opts(g, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.SVScatter(g, o)
				reportC(b, m, err)
			}
		})
		b.Run(t.name+"/5-channel-both", func(b *testing.B) {
			o := opts(g, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.SVBoth(g, o)
				reportC(b, m, err)
			}
		})
	}
}

// --- Table VII: Min-Label SCC ---

func BenchmarkTable7(b *testing.B) {
	d := benchData()
	hash := harness.HashPart(d.Wiki)
	greedy := harness.GreedyPart(d.Wiki)
	for _, t := range []struct {
		name string
		p    *partition.Partition
	}{{"hash", hash}, {"partitioned", greedy}} {
		p := t.p
		b.Run(t.name+"/1-pregel-basic", func(b *testing.B) {
			o := opts(d.Wiki, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.SCCPregel(d.Wiki, o)
				reportP(b, m, err)
			}
		})
		b.Run(t.name+"/2-channel-basic", func(b *testing.B) {
			o := opts(d.Wiki, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.SCCChannel(d.Wiki, o)
				reportC(b, m, err)
			}
		})
		b.Run(t.name+"/3-channel-prop", func(b *testing.B) {
			o := opts(d.Wiki, p)
			for i := 0; i < b.N; i++ {
				_, m, err := algorithms.SCCPropagation(d.Wiki, o)
				reportC(b, m, err)
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationCombinePath compares receiver-side dense combining
// (ScatterCombine's in-array) against hash-map combining
// (CombinedMessage) for the same static traffic: PageRank's inner loop.
func BenchmarkAblationCombinePath(b *testing.B) {
	d := benchData()
	p := harness.HashPart(d.Wiki)
	b.Run("hashmap", func(b *testing.B) {
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankChannel(d.Wiki, o, 10)
			reportC(b, m, err)
		}
	})
	b.Run("presorted-scan", func(b *testing.B) {
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankScatter(d.Wiki, o, 10)
			reportC(b, m, err)
		}
	})
}

// BenchmarkAblationReplyFormat quantifies the §V-B2 reply-format trick:
// the channel's ordered bare-value replies vs Pregel+'s (id, value)
// pairs, on the hub-heavy tree workload.
func BenchmarkAblationReplyFormat(b *testing.B) {
	d := benchData()
	p := harness.HashPart(d.Tree)
	b.Run("value-only-replies", func(b *testing.B) {
		o := opts(d.Tree, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PointerJumpReqResp(d.Tree, o)
			reportC(b, m, err)
		}
	})
	b.Run("id-value-replies", func(b *testing.B) {
		o := opts(d.Tree, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PointerJumpPregelReqResp(d.Tree, o)
			reportP(b, m, err)
		}
	})
}

// BenchmarkAblationMirrorChannel compares the Mirror extension channel
// (ghost mode as a channel) against the engine-level ghost mode and the
// plain scatter channel on the hub-heavy web graph.
func BenchmarkAblationMirrorChannel(b *testing.B) {
	d := benchData()
	p := harness.HashPart(d.Wiki)
	b.Run("mirror-channel", func(b *testing.B) {
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankMirror(d.Wiki, o, 10)
			reportC(b, m, err)
		}
	})
	b.Run("pregel-ghost-mode", func(b *testing.B) {
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankPregelGhost(d.Wiki, o, 10)
			reportP(b, m, err)
		}
	})
	b.Run("scatter-channel", func(b *testing.B) {
		o := opts(d.Wiki, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.PageRankScatter(d.Wiki, o, 10)
			reportC(b, m, err)
		}
	})
}

// BenchmarkAblationPropagationRounds compares the in-superstep
// multi-round propagation against its block-centric restriction (one
// exchange per superstep) — the design choice that separates the
// Propagation channel from a Blogel block program.
func BenchmarkAblationPropagationRounds(b *testing.B) {
	d := benchData()
	und := graph.Undirectify(d.Wiki)
	p := harness.GreedyPart(und)
	b.Run("multi-round", func(b *testing.B) {
		o := opts(und, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.WCCPropagation(und, o)
			reportC(b, m, err)
		}
	})
	b.Run("one-round-per-step", func(b *testing.B) {
		o := opts(und, p)
		for i := 0; i < b.N; i++ {
			_, m, err := algorithms.WCCBlogel(und, o)
			reportC(b, m, err)
		}
	})
}

// BenchmarkAblationCostModel shows the raw in-process wall time next to
// the simulated distributed time for one representative workload, so
// readers can see how much of the reported runtime is modeled network.
func BenchmarkAblationCostModel(b *testing.B) {
	d := benchData()
	p := harness.HashPart(d.Facebook)
	for _, t := range []struct {
		name string
		cost comm.CostModel
	}{
		{"750Mbps", comm.CostModel{}},
		{"10Gbps", comm.CostModel{BytesPerSecond: 1.25e9}},
	} {
		cost := t.cost
		b.Run(t.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fab := comm.NewInProc(p.NumWorkers(), cost)
				m, err := engine.Run(engine.Config{Part: p, Fabric: fab, MaxSupersteps: 200000}, svSetup(d.Facebook, p))
				reportC(b, m, err)
			}
		})
	}
}

// svSetup builds a neighborhood-scatter kernel (10 supersteps of
// combined float messages) for the cost-model ablation.
func svSetup(g *graph.Graph, p *partition.Partition) func(w *engine.Worker) {
	return func(w *engine.Worker) {
		vals := make([]float64, w.LocalCount())
		msg := channel.NewCombinedMessage[float64](w, ser.Float64Codec{}, channel.Sum[float64]())
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				vals[li] = 1
			}
			if w.Superstep() <= 10 {
				for _, v := range g.Neighbors(w.GlobalID(li)) {
					msg.SendMessage(v, vals[li])
				}
			} else {
				w.VoteToHalt()
			}
		}
	}
}

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
