package netcomm_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/netcomm"
	"repro/internal/partition"
	"repro/internal/seq"
)

// startFabricProcs brings up a hub plus procs clients of the given data
// plane hosting m workers in contiguous ranges over network ("tcp" or
// "unix"), exercising co-hosted staging when procs < m.
func startFabricProcs(t *testing.T, network, plane string, m, procs, windowBytes int) (*netcomm.Hub, []*netcomm.Client) {
	t.Helper()
	var ln net.Listener
	var err error
	if network == "unix" {
		ln, err = net.Listen("unix", t.TempDir()+"/hub.sock")
	} else {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		t.Fatal(err)
	}
	hub := netcomm.NewHub(m, comm.CostModel{}, ln)
	t.Cleanup(hub.Close)
	clients := make([]*netcomm.Client, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	per := (m + procs - 1) / procs
	for i := 0; i < procs; i++ {
		lo := i * per
		hi := lo + per - 1
		if hi >= m {
			hi = m - 1
		}
		wg.Add(1)
		// DialConfig blocks until the mesh is up, which needs every
		// process joined: dial concurrently, as real processes would.
		go func(i, lo, hi int) {
			defer wg.Done()
			clients[i], errs[i] = netcomm.DialConfig(netcomm.Config{
				Network: network, Addr: ln.Addr().String(),
				Lo: lo, Hi: hi, M: m,
				DataPlane:   plane,
				WindowBytes: windowBytes,
			})
		}(i, lo, hi)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		c := clients[i]
		t.Cleanup(func() { c.Close() })
	}
	if err := hub.WaitJoined(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return hub, clients
}

// The p2p data plane must produce oracle-identical results with the
// data frames never transiting the hub: the hub's data-byte counter
// stays at zero while its flush-report accounting (cost model, round
// and byte totals) still sees the whole exchange volume.
func TestP2PFabricWCCMatchesOracleOffHub(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			g := graph.Undirectify(graph.RMAT(8, 5, 7, graph.RMATOptions{NoSelfLoops: true}))
			want := seq.ConnectedComponents(g)
			const m, procs = 4, 2 // 2 workers per process: exercises co-hosted staging
			hub, clients := startFabricProcs(t, network, netcomm.DataPlaneP2P, m, procs, 0)
			part := partition.MustHash(g.NumVertices(), m)
			frags := frag.Build(g, part)
			partials := make([][]graph.VertexID, procs)
			errs := make([]error, procs)
			var wg sync.WaitGroup
			for i := range clients {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					o := algorithms.Options{Part: part, Frags: frags, MaxSupersteps: 100000, Fabric: clients[i]}
					partials[i], _, errs[i] = algorithms.WCCPropagation(g, o)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("process %d: %v", i, err)
				}
			}
			for v := 0; v < g.NumVertices(); v++ {
				owner := part.Owner(graph.VertexID(v))
				got := partials[owner/2][v] // 2 workers per process
				if got != want[v] {
					t.Fatalf("vertex %d: got %d want %d", v, got, want[v])
				}
			}
			if db := hub.DataBytes(); db != 0 {
				t.Errorf("hub relayed %d data bytes under p2p, want 0", db)
			}
			st := hub.Stats()
			if st.NetworkBytes == 0 || st.Rounds == 0 || st.SimNetTime == 0 {
				t.Errorf("hub flush accounting missing under p2p: %+v", st)
			}
			var sent int64
			for _, c := range clients {
				cs := c.Stats()
				for _, b := range cs.PeerBytes {
					sent += b
				}
			}
			if sent != st.NetworkBytes {
				t.Errorf("per-peer byte counters sum to %d, hub accounted %d", sent, st.NetworkBytes)
			}
		})
	}
}

// The hub plane, by contrast, relays every byte that leaves a process:
// the counter the p2p test pins at zero tracks the whole exchange volume
// with one worker per process, and the volume less what co-hosted
// workers sent each other — which never touches a socket — with two.
func TestHubPlaneRelaysDataBytes(t *testing.T) {
	g := graph.Undirectify(graph.RMAT(7, 4, 3, graph.RMATOptions{NoSelfLoops: true}))
	want := seq.ConnectedComponents(g)
	for _, tc := range []struct{ m, procs int }{{2, 2}, {4, 2}} {
		t.Run(fmt.Sprintf("%dx%d", tc.procs, tc.m/tc.procs), func(t *testing.T) {
			hub, clients := startFabricProcs(t, "tcp", netcomm.DataPlaneHub, tc.m, tc.procs, 0)
			part := partition.MustHash(g.NumVertices(), tc.m)
			frags := frag.Build(g, part)
			partials := make([][]graph.VertexID, tc.procs)
			var wg sync.WaitGroup
			for i := range clients {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					o := algorithms.Options{Part: part, Frags: frags, MaxSupersteps: 100000, Fabric: clients[i]}
					var err error
					if partials[i], _, err = algorithms.WCCChannel(g, o); err != nil {
						t.Errorf("process %d: %v", i, err)
					}
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			per := tc.m / tc.procs
			for v := range want {
				if got := partials[part.Owner(graph.VertexID(v))/per][v]; got != want[v] {
					t.Fatalf("vertex %d: got %d want %d", v, got, want[v])
				}
			}
			var coHosted int64
			for i, c := range clients {
				for dst, b := range c.Stats().PeerBytes {
					if dst/per == i {
						coHosted += b
					}
				}
			}
			if (coHosted != 0) != (per > 1) {
				t.Fatalf("%d co-hosted bytes with %d workers per process", coHosted, per)
			}
			if db, net := hub.DataBytes(), hub.Stats().NetworkBytes; db != net-coHosted {
				t.Errorf("hub relayed %d data bytes, flush reports accounted %d of which %d co-hosted — the difference should be what it relayed", db, net, coHosted)
			} else if db == 0 {
				t.Error("hub relayed no data bytes on the hub plane")
			}
		})
	}
}

// The wire barrier must behave identically on the p2p plane (it stays
// on the control connection; only data frames moved off the star).
func TestP2PWireBarrierAllReduce(t *testing.T) {
	const m = 4
	_, clients := startFabricProcs(t, "tcp", netcomm.DataPlaneP2P, m, m, 0)
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
