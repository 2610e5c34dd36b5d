package repro

// One benchmark per table/figure of the paper's evaluation (§V), plus
// ablation benches for the design choices DESIGN.md calls out. Each
// bench reports, besides ns/op, the simulated distributed runtime
// (sim-ms/op: wall time + modeled network time), the network volume
// (msgMB/op) and the superstep count (steps/op), the columns of the
// paper's tables:
//
//	go test -run '^$' -bench 'Table[4-7]' .
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
	"repro/internal/ser"
)

var (
	graphsOnce sync.Once
	graphs     map[string]*graph.Graph
)

// benchGraph returns a moderate-size dataset (between harness.ScaleTest
// and ScaleBench, sized so the full -bench=. sweep completes on a
// laptop core), generating them all on first use.
func benchGraph(name string) *graph.Graph {
	graphsOnce.Do(func() {
		wiki := graph.RMAT(11, 8, 101, graph.RMATOptions{NoSelfLoops: true})
		graphs = map[string]*graph.Graph{
			"wiki":     wiki,
			"wiki-und": graph.Undirectify(wiki),
			"webuk":    graph.RMAT(12, 10, 102, graph.RMATOptions{NoSelfLoops: true}),
			"facebook": graph.SocialRMAT(11, 2, 103),
			"twitter":  graph.SocialRMAT(10, 16, 104),
			"chain":    graph.Chain(20000),
			"tree":     graph.RandomTree(20000, 105),
			"road":     graph.Grid(80, 80, 1000, 106),
		}
	})
	return graphs[name]
}

type placement struct {
	graph  string
	greedy bool
}

var (
	inputMu sync.Mutex
	inputs  = map[placement]algorithms.Options{}
)

// benchInput returns a dataset and its run options under hash or
// locality placement. Partition and fragments are built once per
// (dataset, placement) and shared by every row on it, mirroring how the
// catalog serves jobs: the rows measure supersteps, not fragment
// construction.
func benchInput(name string, greedy bool) (*graph.Graph, algorithms.Options) {
	g := benchGraph(name)
	inputMu.Lock()
	defer inputMu.Unlock()
	k := placement{name, greedy}
	o, ok := inputs[k]
	if !ok {
		p := harness.HashPart(g)
		if greedy {
			p = harness.GreedyPart(g)
		}
		o = algorithms.Options{Part: p, Frags: frag.Build(g, p), MaxSupersteps: 200000}
		inputs[k] = o
	}
	return g, o
}

func report(b *testing.B, m algorithms.Metrics) {
	b.ReportMetric(float64(m.SimTime.Milliseconds()), "sim-ms/op")
	b.ReportMetric(float64(m.NetBytes)/1e6, "msgMB/op")
	b.ReportMetric(float64(m.Supersteps), "steps/op")
}

const (
	chn = algorithms.EngineChannel
	prg = algorithms.EnginePregel
)

// benchRow is one sub-benchmark of a paper table or ablation: one
// registry variant on one dataset and placement.
type benchRow struct {
	bench   string // top-level benchmark, without the Benchmark prefix
	name    string // sub-benchmark name
	alg     string
	eng     algorithms.Engine
	variant string
	graph   string // benchGraph name
	greedy  bool   // locality placement (the paper's "(P)") instead of hash
	iters   int    // PageRank supersteps; 0 for the other algorithms
}

const prIters = 30

var benchRows = []benchRow{
	// Table IV: basic implementations, pregel vs channel
	{"Table4", "PR/pregel", "pagerank", prg, "basic", "webuk", false, prIters},
	{"Table4", "PR/channel", "pagerank", chn, "basic", "webuk", false, prIters},
	{"Table4", "WCC/pregel", "wcc", prg, "basic", "wiki-und", false, 0},
	{"Table4", "WCC/channel", "wcc", chn, "basic", "wiki-und", false, 0},
	{"Table4", "PJ/pregel", "pointerjump", prg, "basic", "chain", false, 0},
	{"Table4", "PJ/channel", "pointerjump", chn, "basic", "chain", false, 0},
	{"Table4", "SV/pregel", "sv", prg, "basic", "facebook", false, 0},
	{"Table4", "SV/channel", "sv", chn, "basic", "facebook", false, 0},
	{"Table4", "MSF/pregel", "msf", prg, "basic", "road", false, 0},
	{"Table4", "MSF/channel", "msf", chn, "basic", "road", false, 0},
	{"Table4", "SCC/pregel", "scc", prg, "basic", "wiki", false, 0},
	{"Table4", "SCC/channel", "scc", chn, "basic", "wiki", false, 0},

	// Table V: the three optimized channels
	{"Table5", "ScatterCombine/pregel-basic", "pagerank", prg, "basic", "wiki", false, prIters},
	{"Table5", "ScatterCombine/pregel-ghost", "pagerank", prg, "ghost", "wiki", false, prIters},
	{"Table5", "ScatterCombine/channel-basic", "pagerank", chn, "basic", "wiki", false, prIters},
	{"Table5", "ScatterCombine/channel-scatter", "pagerank", chn, "scatter", "wiki", false, prIters},
	{"Table5", "RequestRespond/pregel-basic", "pointerjump", prg, "basic", "tree", false, 0},
	{"Table5", "RequestRespond/pregel-reqresp", "pointerjump", prg, "reqresp", "tree", false, 0},
	{"Table5", "RequestRespond/channel-basic", "pointerjump", chn, "basic", "tree", false, 0},
	{"Table5", "RequestRespond/channel-reqresp", "pointerjump", chn, "reqresp", "tree", false, 0},
	{"Table5", "Propagation/hash/pregel-basic", "wcc", prg, "basic", "wiki-und", false, 0},
	{"Table5", "Propagation/hash/blogel", "wcc", chn, "blogel", "wiki-und", false, 0},
	{"Table5", "Propagation/hash/channel-basic", "wcc", chn, "basic", "wiki-und", false, 0},
	{"Table5", "Propagation/hash/channel-prop", "wcc", chn, "propagation", "wiki-und", false, 0},
	{"Table5", "Propagation/partitioned/pregel-basic", "wcc", prg, "basic", "wiki-und", true, 0},
	{"Table5", "Propagation/partitioned/blogel", "wcc", chn, "blogel", "wiki-und", true, 0},
	{"Table5", "Propagation/partitioned/channel-basic", "wcc", chn, "basic", "wiki-und", true, 0},
	{"Table5", "Propagation/partitioned/channel-prop", "wcc", chn, "propagation", "wiki-und", true, 0},

	// Table VI: S-V channel combinations
	{"Table6", "Facebook/1-pregel-reqresp", "sv", prg, "reqresp", "facebook", false, 0},
	{"Table6", "Facebook/2-channel-basic", "sv", chn, "basic", "facebook", false, 0},
	{"Table6", "Facebook/3-channel-reqresp", "sv", chn, "reqresp", "facebook", false, 0},
	{"Table6", "Facebook/4-channel-scatter", "sv", chn, "scatter", "facebook", false, 0},
	{"Table6", "Facebook/5-channel-both", "sv", chn, "both", "facebook", false, 0},
	{"Table6", "Twitter/1-pregel-reqresp", "sv", prg, "reqresp", "twitter", false, 0},
	{"Table6", "Twitter/2-channel-basic", "sv", chn, "basic", "twitter", false, 0},
	{"Table6", "Twitter/3-channel-reqresp", "sv", chn, "reqresp", "twitter", false, 0},
	{"Table6", "Twitter/4-channel-scatter", "sv", chn, "scatter", "twitter", false, 0},
	{"Table6", "Twitter/5-channel-both", "sv", chn, "both", "twitter", false, 0},

	// Table VII: Min-Label SCC
	{"Table7", "hash/1-pregel-basic", "scc", prg, "basic", "wiki", false, 0},
	{"Table7", "hash/2-channel-basic", "scc", chn, "basic", "wiki", false, 0},
	{"Table7", "hash/3-channel-prop", "scc", chn, "propagation", "wiki", false, 0},
	{"Table7", "partitioned/1-pregel-basic", "scc", prg, "basic", "wiki", true, 0},
	{"Table7", "partitioned/2-channel-basic", "scc", chn, "basic", "wiki", true, 0},
	{"Table7", "partitioned/3-channel-prop", "scc", chn, "propagation", "wiki", true, 0},

	// receiver-side dense combining (ScatterCombine's in-array) against
	// per-destination combining (CombinedMessage) for the same static
	// traffic: PageRank's inner loop
	{"AblationCombinePath", "hashmap", "pagerank", chn, "basic", "wiki", false, 10},
	{"AblationCombinePath", "presorted-scan", "pagerank", chn, "scatter", "wiki", false, 10},

	// the §V-B2 reply-format trick: the channel's ordered bare-value
	// replies vs Pregel+'s (id, value) pairs, on the hub-heavy tree
	{"AblationReplyFormat", "value-only-replies", "pointerjump", chn, "reqresp", "tree", false, 0},
	{"AblationReplyFormat", "id-value-replies", "pointerjump", prg, "reqresp", "tree", false, 0},

	// the Mirror extension channel (ghost mode as a channel) against the
	// engine-level ghost mode and the plain scatter channel on the
	// hub-heavy web graph
	{"AblationMirrorChannel", "mirror-channel", "pagerank", chn, "mirror", "wiki", false, 10},
	{"AblationMirrorChannel", "pregel-ghost-mode", "pagerank", prg, "ghost", "wiki", false, 10},
	{"AblationMirrorChannel", "scatter-channel", "pagerank", chn, "scatter", "wiki", false, 10},

	// in-superstep multi-round propagation against its block-centric
	// restriction (one exchange per superstep) — the design choice that
	// separates the Propagation channel from a Blogel block program
	{"AblationPropagationRounds", "multi-round", "wcc", chn, "propagation", "wiki-und", true, 0},
	{"AblationPropagationRounds", "one-round-per-step", "wcc", chn, "blogel", "wiki-und", true, 0},
}

// runRows runs the rows of one top-level benchmark through the
// algorithms registry, in table order.
func runRows(b *testing.B, bench string) {
	for _, r := range benchRows {
		if r.bench != bench {
			continue
		}
		b.Run(r.name, func(b *testing.B) {
			spec, ok := algorithms.Lookup(r.alg)
			if !ok {
				b.Fatalf("unknown algorithm %q", r.alg)
			}
			g, o := benchInput(r.graph, r.greedy)
			params := algorithms.Params{Iterations: r.iters}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := spec.Run(r.eng, r.variant, g, o, params)
				if err != nil {
					b.Fatal(err)
				}
				report(b, res.Metrics)
			}
		})
	}
}

func BenchmarkTable4(b *testing.B)                    { runRows(b, "Table4") }
func BenchmarkTable5(b *testing.B)                    { runRows(b, "Table5") }
func BenchmarkTable6(b *testing.B)                    { runRows(b, "Table6") }
func BenchmarkTable7(b *testing.B)                    { runRows(b, "Table7") }
func BenchmarkAblationCombinePath(b *testing.B)       { runRows(b, "AblationCombinePath") }
func BenchmarkAblationReplyFormat(b *testing.B)       { runRows(b, "AblationReplyFormat") }
func BenchmarkAblationMirrorChannel(b *testing.B)     { runRows(b, "AblationMirrorChannel") }
func BenchmarkAblationPropagationRounds(b *testing.B) { runRows(b, "AblationPropagationRounds") }

// BenchmarkAblationCostModel shows the raw in-process wall time next to
// the simulated distributed time for one representative workload, so
// readers can see how much of the reported runtime is modeled network.
func BenchmarkAblationCostModel(b *testing.B) {
	g, o := benchInput("facebook", false)
	p := o.Part
	for _, t := range []struct {
		name string
		cost comm.CostModel
	}{
		{"750Mbps", comm.CostModel{}},
		{"10Gbps", comm.CostModel{BytesPerSecond: 1.25e9}},
	} {
		cost := t.cost
		b.Run(t.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fab := comm.NewInProc(p.NumWorkers(), cost)
				m, err := engine.Run(engine.Config{Part: p, Fabric: fab, MaxSupersteps: 200000}, svSetup(g))
				if err != nil {
					b.Fatal(err)
				}
				report(b, algorithms.Metrics{SimTime: m.SimTime(), NetBytes: m.Comm.NetworkBytes, Supersteps: m.Supersteps})
			}
		})
	}
}

// svSetup builds a neighborhood-scatter kernel (10 supersteps of
// combined float messages) for the cost-model ablation.
func svSetup(g *graph.Graph) func(w *engine.Worker) {
	return func(w *engine.Worker) {
		vals := make([]float64, w.LocalCount())
		msg := channel.NewCombinedMessage[float64](w, ser.Float64Codec{}, channel.Sum[float64]())
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				vals[li] = 1
			}
			if w.Superstep() <= 10 {
				for _, v := range g.Neighbors(w.GlobalID(li)) {
					msg.Send(w.Addr(v), vals[li])
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
