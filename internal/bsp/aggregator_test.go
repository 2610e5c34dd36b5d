package bsp

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/netcomm"
	"repro/internal/partition"
	"repro/internal/ser"
)

const aggSteps = 7

// aggAdds is what worker w adds to the sum in superstep s: nothing in
// superstep 3, and on the other supersteps values whose float sum
// depends on the order they are added in, twice on worker 1.
func aggAdds(s, w int) []float64 {
	if s == 3 || (s+w)%5 == 0 {
		return nil
	}
	switch w {
	case 0:
		return []float64{1e16 * float64(s)}
	case 1:
		return []float64{1, 0.25 * float64(s)}
	}
	return []float64{3 * float64(s)}
}

// aggFold folds the partials of workers — each its worker's adds in
// order — in the order given, as the driver does in worker order; zero
// if no worker added.
func aggFold(s int, workers ...int) float64 {
	var sum float64
	some := false
	for _, w := range workers {
		adds := aggAdds(s, w)
		if len(adds) == 0 {
			continue
		}
		partial := adds[0]
		for _, v := range adds[1:] {
			partial += v
		}
		if some {
			sum += partial
		} else {
			sum, some = partial, true
		}
	}
	if !some {
		return aggZero
	}
	return sum
}

// aggZero is the sum's result when nobody added: not the sum's
// identity, so a superstep without partials shows.
const aggZero = -7.5

// presence encodes nothing: a worker that adds to a presence aggregator
// posts an empty encoding, which the fold must tell from "absent".
type presence struct{}

func (presence) Encode(*ser.Buffer, bool)        {}
func (presence) Decode(*ser.Buffer) bool         { return true }
func either(a, b bool) bool                      { return a || b }
func (p *aggProgram) Decoding() any              { return nil }
func (p *aggProgram) Again() bool                { return false }
func (p *aggProgram) Initialize()                {}
func (p *aggProgram) Serialize(int, *ser.Buffer) {}

// aggProgram adds per aggAdds, and to the presence aggregator on
// worker m-1 in the even supersteps, and records what every superstep
// after the first reads back.
type aggProgram struct {
	Core
	sum  *Aggregator[float64]
	seen *Aggregator[bool]
	got  []string
}

func (p *aggProgram) Setup() error {
	p.sum = NewAggregator(&p.Core, ser.Float64Codec{}, func(a, b float64) float64 { return a + b }, aggZero)
	p.seen = NewAggregator(&p.Core, presence{}, either, false)
	return nil
}

func (p *aggProgram) Compute() {
	s := p.Superstep()
	if s > 1 {
		p.got = append(p.got, fmt.Sprintf("%x %v", math.Float64bits(p.sum.Result()), p.seen.Result()))
	}
	for _, v := range aggAdds(s, p.WorkerID()) {
		p.sum.Add(v)
	}
	if s%2 == 0 && p.WorkerID() == p.NumWorkers()-1 {
		p.seen.Add(true)
	}
	if s == aggSteps {
		for li := range p.LocalCount() {
			p.DeactivateLocal(li)
		}
	}
}

func (p *aggProgram) Deserialize(src int, in *ser.Buffer) error {
	if in.Remaining() != 0 {
		return fmt.Errorf("%d bytes from worker %d", in.Remaining(), src)
	}
	return nil
}

func (p *aggProgram) SaveState(*ckpt.Record)          {}
func (p *aggProgram) RestoreState(*ckpt.Record) error { return nil }

// TestAggregatorFoldsInWorkerOrder runs float partials whose sum depends
// on the order of its terms through the driver's gather, on 1-3 workers,
// in process and over two processes of a netcomm hub. Every worker must
// read back, bit for bit, the fold of the partials in worker order —
// zero in the superstep nobody adds — and a worker's empty encoding must
// count as a partial where "absent" does not. With more than one worker
// each worker is charged its post and the encoded results per superstep.
func TestAggregatorFoldsInWorkerOrder(t *testing.T) {
	for m := 1; m <= 3; m++ {
		var want []string
		order := []int{0, 1, 2}[:m]
		for s := 1; s < aggSteps; s++ {
			want = append(want, fmt.Sprintf("%x %v", math.Float64bits(aggFold(s, order...)), s%2 == 0))
		}
		if m == 3 && aggFold(6, 0, 1, 2) == aggFold(6, 2, 1, 0) {
			t.Fatal("the adds do not tell a worker-order fold from the reverse")
		}
		part := partition.MustHash(6, m)
		check := func(t *testing.T, workers []*aggProgram, met Metrics) {
			t.Helper()
			for _, p := range workers {
				if fmt.Sprint(p.got) != fmt.Sprint(want) {
					t.Fatalf("worker %d read\n%v\nwant\n%v", p.WorkerID(), p.got, want)
				}
			}
			// 8 result bytes down per superstep and worker; up, a post of
			// two presence bytes and 8 bytes per partial added
			var charge int64
			for s := 1; s <= aggSteps && m > 1; s++ {
				for w := range m {
					charge += 8
					if len(aggAdds(s, w)) > 0 || s%2 == 0 && w == m-1 {
						charge += 2
					}
					if len(aggAdds(s, w)) > 0 {
						charge += 8
					}
				}
			}
			if met.NetBytes != charge || met.LocalBytes != 0 {
				t.Fatalf("%d network and %d loopback bytes, want the %d-byte charge", met.NetBytes, met.LocalBytes, charge)
			}
		}
		t.Run(fmt.Sprintf("inproc/%d", m), func(t *testing.T) {
			var workers []*aggProgram
			var mu sync.Mutex
			met, err := Run(Env{Part: part, Fabric: comm.NewInProc(m)}, "agg", func() Program {
				p := &aggProgram{}
				mu.Lock()
				workers = append(workers, p)
				mu.Unlock()
				return p
			})
			if err != nil {
				t.Fatal(err)
			}
			check(t, workers, met)
		})
		if m == 1 {
			continue
		}
		t.Run(fmt.Sprintf("netcomm/%d", m), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hub := netcomm.NewHub(m, comm.CostModel{}, ln)
			t.Cleanup(hub.Close)
			ranges := [][2]int{{0, 0}, {1, m - 1}}
			workers := make([][]*aggProgram, len(ranges))
			mets := make([]Metrics, len(ranges))
			errs := make([]error, len(ranges))
			var wg sync.WaitGroup
			for i, r := range ranges {
				c, err := netcomm.Dial("tcp", ln.Addr().String(), r[0], r[1], m)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				wg.Add(1)
				go func() {
					defer wg.Done()
					var mu sync.Mutex
					mets[i], errs[i] = Run(Env{Part: part, Fabric: c}, "agg", func() Program {
						p := &aggProgram{}
						mu.Lock()
						workers[i] = append(workers[i], p)
						mu.Unlock()
						return p
					})
				}()
			}
			if err := hub.WaitJoined(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			var met Metrics
			for i := range ranges {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				met.NetBytes += mets[i].NetBytes
				met.LocalBytes += mets[i].LocalBytes
			}
			check(t, append(workers[0], workers[1]...), met)
			if db := hub.DataBytes(); db != 0 {
				t.Fatalf("the hub relayed %d frame bytes; the posts ride the arrivals", db)
			}
		})
	}
}
