package netcomm_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/netcomm"
	"repro/internal/obs"
)

// startFabricAdaptive brings up a hub plus m single-worker clients on
// the adaptive p2p plane over loopback TCP. Unlike the static mesh,
// DialConfig returns as soon as the peer directory lands: no pair is
// dialed until its relayed volume crosses cfg.PromoteBytes.
func startFabricAdaptive(t *testing.T, m int, cfg netcomm.Config) (*netcomm.Hub, []*netcomm.Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := netcomm.NewHub(m, comm.CostModel{}, ln)
	t.Cleanup(hub.Close)
	clients := make([]*netcomm.Client, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Network, c.Addr = "tcp", ln.Addr().String()
			c.Lo, c.Hi, c.M = i, i, m
			c.DataPlane = netcomm.DataPlaneP2PAdaptive
			clients[i], errs[i] = netcomm.DialConfig(c)
		}(i)
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

// driveRounds runs the engines' exact per-round protocol (fill, Flush,
// barrier, consume, reducing crossing, Release) concurrently on every
// client. frame(round, src, dst) sizes each directed flow's payload for
// the round; zero means no frame.
func driveRounds(t *testing.T, clients []*netcomm.Client, rounds int, frame func(round, src, dst int) int) {
	t.Helper()
	m := len(clients)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := clients[i].Endpoint(i)
			bar := clients[i].Barrier()
			for r := 0; r < rounds; r++ {
				for dst := 0; dst < m; dst++ {
					if dst == i {
						continue
					}
					if n := frame(r, i, dst); n > 0 {
						buf := ep.Out(dst).Extend(n)
						for b := range buf {
							buf[b] = byte(r)
						}
					}
				}
				if err := ep.Flush(); err != nil {
					t.Errorf("client %d round %d: %v", i, r, err)
					return
				}
				if !bar.Wait() {
					t.Errorf("client %d round %d: barrier aborted", i, r)
					return
				}
				for src := 0; src < m; src++ {
					if src != i {
						ep.In(src)
					}
				}
				if _, ok := bar.AllReduce(0); !ok {
					t.Errorf("client %d round %d: reduce aborted", i, r)
					return
				}
				ep.Release()
			}
		}(i)
	}
	wg.Wait()
}

// connTo returns client's ConnStat row facing peer worker id, if any
// (ConnStat ranges are exclusive-high).
func connTo(c *netcomm.Client, peer int) (obs.ConnStat, bool) {
	for _, cs := range c.ConnStats() {
		if cs.PeerLo <= peer && peer < cs.PeerHi {
			return cs, true
		}
	}
	return obs.ConnStat{}, false
}

// drivePromoted drives rounds until the from->to pair holds a direct
// connection. Promotion is an asynchronous dial that starts when the
// pair's relayed volume crosses PromoteBytes, so how many rounds it
// takes depends on the box's load: tests wait for it here and then run
// the rounds they assert on.
func drivePromoted(t *testing.T, clients []*netcomm.Client, from, to int, frame func(round, src, dst int) int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r := 0; ; r++ {
		if cs, _ := connTo(clients[from], to); cs.Window != 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pair %d->%d not promoted after %d rounds: %+v", from, to, r, clients[from].ConnStats())
		}
		if driveRounds(t, clients, 1, frame); t.Failed() {
			t.FailNow()
		}
	}
}

// A skewed workload on the lazy mesh must split cleanly: the one hot
// pair crosses the promotion threshold and moves its volume onto a
// direct connection, the cold pairs never earn a dial and stay on the
// hub relay, and the mesh's standing window memory (the sum of granted
// receive windows) stays far below the static plane's
// DefaultWindowBytes x every-directed-pair bill.
func TestAdaptiveLazyMeshPromotesOnlyHotPair(t *testing.T) {
	const m = 4
	const hotFrame = 32 << 10
	const coldFrame = 128
	const rounds = 20
	hub, clients := startFabricAdaptive(t, m, netcomm.Config{
		PromoteBytes: 64 << 10, // the hot flow crosses this on round 2
	})
	frame := func(r, src, dst int) int {
		if src == 0 && dst == 1 {
			return hotFrame
		}
		return coldFrame // background trickle: never reaches PromoteBytes
	}
	drivePromoted(t, clients, 0, 1, frame)
	promoted, _ := connTo(clients[0], 1)
	driveRounds(t, clients, rounds, frame)

	// The hot pair must have been promoted, with the direct connection
	// carrying the bulk of its volume from then on.
	hot, ok := connTo(clients[0], 1)
	if !ok {
		t.Fatal("hot pair 0->1 has no connection stats")
	}
	if hot.Window == 0 {
		t.Fatalf("hot pair never promoted to a direct connection: %+v", hot)
	}
	direct, relayed := hot.Bytes-promoted.Bytes, hot.RelayBytes-promoted.RelayBytes
	if direct <= relayed {
		t.Errorf("hot pair direct bytes (%d) do not dominate relayed bytes (%d) once promoted", direct, relayed)
	}
	if direct+relayed < int64(rounds*hotFrame) {
		t.Errorf("hot pair moved %d direct + %d relayed bytes, want at least %d", direct, relayed, rounds*hotFrame)
	}

	// Every cold pair must have stayed on the relay: relay traffic
	// recorded, no direct connection established. Client 1 is the hot
	// pair's other end, so its row facing worker 0 is legitimately
	// direct (promotion is pair-level); every other row must be
	// relay-only.
	for i := 1; i < m; i++ {
		for _, cs := range clients[i].ConnStats() {
			if i == 1 && cs.PeerLo == 0 {
				continue
			}
			if cs.Window != 0 {
				t.Errorf("cold client %d grew a direct connection to %d-%d: %+v",
					i, cs.PeerLo, cs.PeerHi, cs)
			}
			if cs.RelayFrames == 0 {
				t.Errorf("cold client %d row %d-%d recorded no relay traffic", i, cs.PeerLo, cs.PeerHi)
			}
		}
	}
	if hub.DataBytes() == 0 {
		t.Error("cold pairs relayed no bytes through the hub")
	}

	// Standing window memory: only the promoted pair holds windows, so
	// the job-wide sum must be far under the static mesh's bill of one
	// default window per directed pair.
	var granted int64
	for _, c := range clients {
		for _, cs := range c.ConnStats() {
			granted += cs.RecvWindow
		}
	}
	static := int64(netcomm.DefaultWindowBytes) * int64(m*(m-1))
	if granted == 0 || granted >= static/2 {
		t.Errorf("standing windows under adaptive+lazy sum to %d, want well below static %d", granted, static)
	}
}

// A sender that keeps exhausting a small window must be grown out of
// the stall by the receiver's controller: the send window visible on
// the sending side ends well above its initial value and the resize
// counter records the retunes.
func TestAdaptiveWindowGrowsOutOfStall(t *testing.T) {
	const m = 2
	const initial = 8 << 10
	_, clients := startFabricAdaptive(t, m, netcomm.Config{
		WindowBytes:  initial,
		WindowMin:    4 << 10,
		WindowMax:    1 << 20,
		PromoteBytes: 1, // promote on first contact; the test is about windows
	})
	frame := func(r, src, dst int) int {
		if src == 0 && dst == 1 {
			return 64 << 10 // 8x the initial window: stalls until grown
		}
		return 0
	}
	drivePromoted(t, clients, 0, 1, frame)
	driveRounds(t, clients, 16, frame)
	cs, ok := connTo(clients[0], 1)
	if !ok || cs.Window == 0 {
		t.Fatalf("stalling pair was never promoted: %+v", cs)
	}
	if cs.Window <= initial {
		t.Errorf("send window stayed at %d despite per-round stalls, want growth above %d", cs.Window, initial)
	}
	if cs.Resizes == 0 {
		t.Error("no resize events recorded on the stalling connection")
	}
	if cs.WindowPeak < cs.Window {
		t.Errorf("window peak %d below final window %d", cs.WindowPeak, cs.Window)
	}
}

// The inverse trajectory: a connection granted a big window but moving
// small rounds must shed the headroom, converging toward twice the
// round volume (floored at WindowMin).
func TestAdaptiveWindowShrinksWhenIdle(t *testing.T) {
	const m = 2
	const initial = 512 << 10
	_, clients := startFabricAdaptive(t, m, netcomm.Config{
		WindowBytes:  initial,
		WindowMin:    16 << 10,
		WindowMax:    1 << 20,
		PromoteBytes: 1,
	})
	frame := func(r, src, dst int) int {
		if src == 0 && dst == 1 {
			return 4 << 10 // far under the granted window every round
		}
		return 0
	}
	drivePromoted(t, clients, 0, 1, frame)
	driveRounds(t, clients, 30, frame)
	cs, ok := connTo(clients[0], 1)
	if !ok || cs.Window == 0 {
		t.Fatalf("idle pair was never promoted: %+v", cs)
	}
	if cs.Window >= initial {
		t.Errorf("send window still %d after 30 idle rounds, want shrunk below %d", cs.Window, initial)
	}
	if cs.Window < 16<<10 {
		t.Errorf("send window %d shrank below WindowMin %d", cs.Window, 16<<10)
	}
	if cs.Resizes == 0 {
		t.Error("no resize events recorded on the idle connection")
	}
}
