package netcomm_test

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/barrier"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/netcomm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/seq"
	"repro/internal/ser"
)

// startFabric brings up a hub plus one client per worker over TCP
// loopback (exercising the TCP transport; the process tests in
// internal/workerproc cover Unix sockets).
func startFabric(t *testing.T, m int) (*netcomm.Hub, []*netcomm.Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := netcomm.NewHub(m, comm.CostModel{}, ln)
	t.Cleanup(hub.Close)
	clients := make([]*netcomm.Client, m)
	for i := 0; i < m; i++ {
		c, err := netcomm.Dial("tcp", ln.Addr().String(), i, i, m)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	if err := hub.WaitJoined(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return hub, clients
}

// The wire barrier must reduce across processes exactly like the shared
// in-process barrier.
func TestWireBarrierAllReduce(t *testing.T) {
	const m = 5
	_, clients := startFabric(t, m)
	var wg sync.WaitGroup
	sums := make([]uint64, m)
	oks := make([]bool, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bar := clients[i].Barrier()
			for round := 0; round < 20; round++ {
				sums[i], oks[i] = bar.AllReduce(uint64(i + 1))
				if !oks[i] || sums[i] != m*(m+1)/2 {
					return
				}
				if !bar.Wait() {
					oks[i] = false
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < m; i++ {
		if !oks[i] || sums[i] != m*(m+1)/2 {
			t.Fatalf("client %d: sum=%d ok=%v want %d true", i, sums[i], oks[i], m*(m+1)/2)
		}
	}
}

// wcc is the registry entry the socket-fabric tests run.
var wcc, _ = algorithms.Lookup("wcc")

// runDistributed executes one channel-engine algorithm with each worker
// on its own socket-fabric client (same test process, separate engine
// Runs) and merges the partial label arrays by ownership.
func runDistributed(t *testing.T, g *graph.Graph, m int,
	run func(*graph.Graph, algorithms.Options) ([]graph.VertexID, error)) []graph.VertexID {
	t.Helper()
	_, clients := startFabric(t, m)
	part := partition.MustHash(g.NumVertices(), m)
	frags := frag.Build(g, part)
	partials := make([][]graph.VertexID, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := algorithms.Options{Part: part, Frags: frags, MaxSupersteps: 100000, Fabric: clients[i]}
			partials[i], errs[i] = run(g, o)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	merged := make([]graph.VertexID, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		merged[v] = partials[part.Owner(graph.VertexID(v))][v]
	}
	return merged
}

func TestSocketFabricWCCMatchesOracle(t *testing.T) {
	g := graph.Undirectify(graph.RMAT(8, 5, 7, graph.RMATOptions{NoSelfLoops: true}))
	want := seq.ConnectedComponents(g)
	got := runDistributed(t, g, 4, func(g *graph.Graph, o algorithms.Options) ([]graph.VertexID, error) {
		res, err := wcc.Run(algorithms.EngineChannel, "propagation", g, o, algorithms.Params{})
		if err != nil {
			return nil, err
		}
		return res.Labels, nil
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// The driver counts a job's traffic above the fabric, so the socket
// fabric's run counts what the in-process run does, and the hub relays
// exactly the network bytes that cross processes: those less what
// co-hosted workers sent each other, read off the flow matrix, and less
// the aggregate charge, which rides the barrier crossing and is in no
// flow cell. PageRank's one float aggregator charges each worker its
// post (9 bytes, or none when it added nothing) and the 8-byte result
// per superstep; WCC registers none.
func TestSocketFabricHubStats(t *testing.T) {
	const m = 4
	g := graph.Undirectify(graph.RMAT(7, 4, 3, graph.RMATOptions{NoSelfLoops: true}))
	part := partition.MustHash(g.NumVertices(), m)
	frags := frag.Build(g, part)
	for _, tc := range []struct {
		alg, variant string
		agg          bool
	}{
		{"wcc", algorithms.DefaultVariant, false},
		{"pagerank", "basic", true},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			spec, _ := algorithms.Lookup(tc.alg)
			run := func(fab comm.Fabric, flows *obs.FlowAccum) algorithms.Metrics {
				o := algorithms.Options{Part: part, Frags: frags, MaxSupersteps: 100000, Fabric: fab, Flows: flows}
				res, err := spec.Run(algorithms.EngineChannel, tc.variant, g, o, algorithms.Params{Iterations: 10})
				if err != nil {
					t.Error(err)
					return algorithms.Metrics{}
				}
				return res.Metrics
			}
			want := run(nil, nil)

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hub := netcomm.NewHub(m, comm.CostModel{}, ln)
			t.Cleanup(hub.Close)
			clients := make([]*netcomm.Client, 2)
			for i := range clients {
				c, err := netcomm.Dial("tcp", ln.Addr().String(), 2*i, 2*i+1, m)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				clients[i] = c
			}
			if err := hub.WaitJoined(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			flows := obs.NewFlowAccum(m)
			procs := make([]algorithms.Metrics, len(clients))
			var wg sync.WaitGroup
			for i, c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					procs[i] = run(c, flows)
				}()
			}
			wg.Wait()
			var got algorithms.Metrics
			for _, p := range procs {
				got.NetBytes += p.NetBytes
				got.LocalBytes += p.LocalBytes
				if p.Rounds != want.Rounds || p.Model != 0 {
					t.Errorf("a process counted %d rounds and a %v model, want %d and none", p.Rounds, p.Model, want.Rounds)
				}
			}
			if got.NetBytes != want.NetBytes || got.LocalBytes != want.LocalBytes || want.NetBytes == 0 || want.LocalBytes == 0 {
				t.Fatalf("processes counted %d network and %d loopback bytes, the in-process run %d and %d",
					got.NetBytes, got.LocalBytes, want.NetBytes, want.LocalBytes)
			}
			var coHosted, offWorker int64
			for _, f := range flows.Matrix().Flows {
				if f.Src != f.Dst {
					offWorker += f.Bytes
					if f.Src/2 == f.Dst/2 {
						coHosted += f.Bytes
					}
				}
			}
			charge := got.NetBytes - offWorker
			steps := int64(m * want.Supersteps)
			if tc.agg && (charge < 8*steps || charge > 17*steps) || !tc.agg && charge != 0 {
				t.Errorf("an aggregate charge of %d bytes in %d worker supersteps", charge, steps)
			}
			if db := hub.DataBytes(); db != got.NetBytes-coHosted-charge || coHosted == 0 {
				t.Errorf("hub relayed %d bytes, want the %d network bytes less the %d co-hosted and the %d charged for aggregates",
					db, got.NetBytes, coHosted, charge)
			}
		})
	}
}

// stallChannel parks one worker forever at superstep 3 unless released,
// standing in for a worker that died mid-superstep.
type stallChannel struct{}

func (stallChannel) Initialize()                        {}
func (stallChannel) AfterCompute()                      {}
func (stallChannel) Serialize(dst int, b *ser.Buffer)   {}
func (stallChannel) Deserialize(src int, b *ser.Buffer) {}
func (stallChannel) Again() bool                        { return false }

// Dropping one worker's connection mid-run must abort every other
// worker's barrier (no hang) and surface a transport error on the hub.
func TestSocketFabricConnDropAborts(t *testing.T) {
	const m = 3
	hub, clients := startFabric(t, m)
	part := partition.MustHash(3*64, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = engine.Run(engine.Config{Part: part, Fabric: clients[i], MaxSupersteps: 1 << 30},
				func(w *engine.Worker) {
					w.Register(stallChannel{})
					w.Compute = func(li int) {
						if w.WorkerID() == 1 && w.Superstep() == 3 && li == 0 {
							clients[1].Close() // the "kill": connection drops mid-superstep
						}
					}
				})
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers hung after connection drop")
	}
	for i, err := range errs {
		if i == 1 {
			continue // the dropped worker's own error shape is incidental
		}
		if err == nil {
			t.Errorf("worker %d: no error after peer connection drop", i)
		} else if !errors.Is(err, barrier.ErrAborted) && !strings.Contains(err.Error(), "abort") {
			t.Errorf("worker %d: unexpected error %v", i, err)
		}
		// the surviving processes report in (as graphworker would), so
		// the hub can settle
		_ = clients[i].SendResult([]byte("x"))
	}
	if _, herrs, err := hub.WaitResults(5 * time.Second); err != nil {
		t.Fatalf("hub did not settle: %v", err)
	} else if len(herrs) == 0 {
		t.Error("hub recorded no transport error for the dropped worker")
	}
}
