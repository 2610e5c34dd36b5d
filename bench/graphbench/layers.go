package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/barrier"
	"repro/internal/catalog"
	"repro/internal/comm"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/netcomm"
	"repro/internal/partition"
	"repro/internal/ser"
)

// frameBytes is the payload every worker sends every other worker per
// round in the comm and netcomm exchanges (uniform all-to-all).
const frameBytes = 64 << 10

// layerResult is the traced pass of one workload.
type layerResult struct {
	Seed int64 `json:"seed"`
	tally
	TraceFile string              `json:"trace_file"`
	Metrics   map[string]measured `json:"metrics"`
}

// layerRun carries one traced pass: the workload's inputs, the span
// recorder and the values measured so far.
type layerRun struct {
	l    layout
	w    workload
	p    params
	tr   *tracer
	vals map[string]float64
	res  *layerResult

	spec  *algorithms.Spec
	eng   algorithms.Engine
	orc   *oracle
	cat   *catalog.Catalog
	entry *catalog.Entry
}

func (r *layerRun) set(name string, v float64) { r.vals[name] = v }

// op counts one operation of the traced pass whose outcome is checked.
func (r *layerRun) op(err error) { r.res.op(err) }

// runLayers is the traced pass: every layer a job of w crosses is called
// directly, timed, and recorded as a span; the numbers never feed the
// end-to-end metrics.
func runLayers(l layout, w workload, p params, seed int64, progress io.Writer) (*layerResult, error) {
	r := &layerRun{l: l, w: w, p: p, tr: newTracer(), vals: map[string]float64{},
		res: &layerResult{Seed: seed}}
	var ok bool
	if r.spec, ok = algorithms.Lookup(w.req.Algorithm); !ok {
		return nil, fmt.Errorf("unknown algorithm %q", w.req.Algorithm)
	}
	var err error
	if r.eng, err = algorithms.ParseEngine(w.req.Engine); err != nil {
		return nil, err
	}
	gen := w.genExpr(p, seed)
	var g *graph.Graph
	r.set("graph.generate_ms", ms(timeIt(func() { g, err = catalog.Generate(gen) })))
	if err != nil {
		return nil, err
	}
	if r.orc, err = newOracle(g, w.req, seed); err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"catalog", func() error { return r.measureCatalog(gen) }},
		{"graph", r.measureGraphLayers},
		{"ser, comm, barrier", r.measureMicro},
		{"netcomm", r.measureNetcomm},
		{"engine", r.replayEngine},
		{"workerproc", r.replayWorkerproc},
		{"jobs, server", r.replayService},
		{"harness", func() error { return r.measureFidelity(seed) }},
		// last: its scale-16 graph would sit in the heap of every replay
		// after it and tax their garbage collections
		{"plane sweep", r.sweepPlanes},
	}
	for _, s := range steps {
		start := time.Now()
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("%s: traced %s: %w", w.Name, s.name, err)
		}
		fmt.Fprintf(progress, "%s traced: %s in %.1fs\n", w.Name, s.name, time.Since(start).Seconds())
	}
	r.cat.Close()
	r.set("trace.residual_share", r.tr.residualShare("job"))

	r.res.TraceFile = filepath.Join(l.out, "trace-"+w.Name+".json")
	if err := writeJSON(r.res.TraceFile, map[string]any{
		"workload": w.Name, "seed": seed, "spans": r.tr.spans}); err != nil {
		return nil, err
	}
	var missing []string
	if r.res.Metrics, missing = collect(perLayer, r.vals); len(missing) > 0 {
		return nil, fmt.Errorf("%s: traced pass has no value for %v", w.Name, missing)
	}
	return r.res, nil
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// medianOf times f n times and returns the median in milliseconds.
func medianOf(n int, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = ms(timeIt(f))
	}
	return median(xs)
}

// measureCatalog loads the dataset the way graphd's first job does and
// leaves the entry for the replays.
func (r *layerRun) measureCatalog(gen string) error {
	r.cat = catalog.New(simWorkers, 0)
	if err := r.cat.Register(catalog.Spec{Name: r.w.dataset, Gen: gen}); err != nil {
		return err
	}
	var err error
	r.set("catalog.cold_get_ms", ms(timeIt(func() { r.entry, err = r.cat.Get(r.w.dataset) })))
	if err != nil {
		return err
	}
	// the first acquire may derive the undirected view; that belongs to
	// set-up, the steady-state acquire is what every job pays
	if _, release, _, err := r.entry.AcquireView("", r.spec.NeedsUndirected); err != nil {
		return err
	} else {
		release()
	}
	const calls = 1000
	d := timeIt(func() {
		for i := 0; i < calls; i++ {
			_, release, _, _ := r.entry.AcquireView("", r.spec.NeedsUndirected) // built above, cannot fail now
			release()
		}
	})
	r.set("catalog.acquire_view_us", float64(d.Microseconds())/calls)
	return nil
}

// measureGraphLayers times what a distributed job rebuilds from scratch:
// partition, fragments, and the snapshot round trip.
func (r *layerRun) measureGraphLayers() error {
	view, release, _, err := r.entry.AcquireView("", r.spec.NeedsUndirected)
	if err != nil {
		return err
	}
	defer release()
	g := view.Graph
	var part *partition.Partition
	r.set("partition.hash_ms", medianOf(3, func() { part, err = partition.Hash(g.NumVertices(), simWorkers) }))
	if err != nil {
		return err
	}
	r.set("partition.edge_cut", partition.EdgeCut(g, part))
	var frags *frag.Fragments
	r.set("frag.build_ms", medianOf(3, func() { frags = frag.Build(g, part) }))
	r.set("frag.mb", float64(frags.Bytes())/1e6)

	path := filepath.Join(r.l.tmp, "layers-"+r.w.Name+".bin")
	defer os.Remove(path)
	placement := []graph.Placement{{Name: view.Placement, Workers: simWorkers, Owner: view.Part.Owners()}}
	r.set("graph.snapshot_write_ms", medianOf(3, func() { err = graph.WriteSnapshotFile(path, g, placement) }))
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("graph.snapshot_mb", float64(st.Size())/1e6)
	var back *graph.Graph
	r.set("graph.snapshot_read_ms", medianOf(3, func() { back, _, err = graph.ReadSnapshotFile(path) }))
	if err == nil && back.NumEdges() != g.NumEdges() {
		err = fmt.Errorf("snapshot read back %d edges, wrote %d", back.NumEdges(), g.NumEdges())
	}
	r.op(err)
	return nil
}

// measureMicro times the three layers under every exchange round on
// their own: the wire codec, the in-process fabric, the barrier.
func (r *layerRun) measureMicro() error {
	const pairs = frameBytes / 12 // one (uint32, float64) message is 12 bytes
	buf := ser.NewBuffer(frameBytes)
	enc := timeIt(func() {
		for n := 0; n < r.p.microRounds; n++ {
			buf.Reset()
			for i := 0; i < pairs; i++ {
				buf.WriteUint32(uint32(i))
				buf.WriteFloat64(float64(i))
			}
		}
	})
	var sum float64
	dec := timeIt(func() {
		for n := 0; n < r.p.microRounds; n++ {
			buf.Rewind()
			for i := 0; i < pairs; i++ {
				sum += float64(buf.ReadUint32()) + buf.ReadFloat64()
			}
		}
	})
	var serErr error
	if want := float64(r.p.microRounds) * pairs * (pairs - 1); sum != want {
		serErr = fmt.Errorf("ser round trip summed to %g, want %g", sum, want)
	}
	r.op(serErr)
	mb := float64(r.p.microRounds) * pairs * 12 / 1e6
	r.set("ser.encode_mb_s", mb/enc.Seconds())
	r.set("ser.decode_mb_s", mb/dec.Seconds())

	fab := comm.NewInProc(simWorkers, comm.CostModel{})
	d, err := exchangeRounds([]comm.Fabric{fab}, r.p.microRounds)
	r.op(err)
	r.set("comm.inproc_round_us", float64(d.Microseconds())/float64(r.p.microRounds))

	crossings := r.p.microRounds * 50
	r.set("barrier.crossing_ns", float64(parties(func(b *barrier.Shared) { b.Wait() }, crossings).Nanoseconds())/float64(crossings))
	r.set("barrier.allreduce_ns", float64(parties(func(b *barrier.Shared) { b.AllReduce(1) }, crossings).Nanoseconds())/float64(crossings))
	return nil
}

// parties runs n crossings of a fresh simWorkers-party barrier.
func parties(cross func(*barrier.Shared), n int) time.Duration {
	b := barrier.New(simWorkers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				cross(b)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// exchangeRounds drives the engines' per-round protocol — stage, Flush,
// barrier, read, reducing crossing, Release — over every local worker of
// the given fabrics (one for the in-process fabric, one per client on the
// socket fabric), each sending frameBytes to every other worker.
func exchangeRounds(fabs []comm.Fabric, rounds int) (time.Duration, error) {
	m := fabs[0].NumWorkers()
	payload := make([]byte, frameBytes)
	var wg sync.WaitGroup
	errs := make(chan error, m) // one slot per worker, so no send blocks
	start := time.Now()
	for _, f := range fabs {
		for _, id := range f.LocalWorkers() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ep, bar := f.Endpoint(id), f.Barrier()
				for n := 0; n < rounds; n++ {
					for dst := 0; dst < m; dst++ {
						if dst != id {
							copy(ep.Out(dst).Extend(frameBytes), payload)
						}
					}
					if err := ep.Flush(); err != nil {
						errs <- err
						return
					}
					if !bar.Wait() {
						errs <- errors.New("exchange barrier aborted")
						return
					}
					for src := 0; src < m; src++ {
						if src != id && ep.In(src).Len() != frameBytes {
							errs <- fmt.Errorf("worker %d got %d bytes from %d, want %d", id, ep.In(src).Len(), src, frameBytes)
							bar.Abort()
							return
						}
					}
					if _, ok := bar.AllReduce(0); !ok {
						errs <- errors.New("exchange reduce aborted")
						return
					}
					ep.Release()
				}
			}()
		}
	}
	wg.Wait()
	d := time.Since(start)
	close(errs)
	return d, <-errs // nil when no worker reported
}

// measureNetcomm runs the uniform exchange on each socket data plane:
// simWorkers single-worker clients on one hub over Unix sockets, the
// transport graphd's worker processes use.
func (r *layerRun) measureNetcomm() error {
	for _, plane := range planes {
		if err := r.netcommPlane(plane); err != nil {
			return fmt.Errorf("plane %s: %w", plane, err)
		}
	}
	return nil
}

func (r *layerRun) netcommPlane(plane string) error {
	dir, err := os.MkdirTemp("", "graphbench-net")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addr := filepath.Join(dir, "hub.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		return err
	}
	hub := netcomm.NewHub(simWorkers, comm.CostModel{}, ln)
	defer hub.Close()
	clients := make([]*netcomm.Client, simWorkers)
	dialErrs := make([]error, simWorkers)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clients[i], dialErrs[i] = netcomm.DialConfig(netcomm.Config{
				Network: "unix", Addr: addr, Lo: i, Hi: i, M: simWorkers, DataPlane: plane})
		}()
	}
	wg.Wait()
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	if err := errors.Join(dialErrs...); err != nil {
		return err
	}
	if err := hub.WaitJoined(30 * time.Second); err != nil {
		return err
	}
	fabs := make([]comm.Fabric, len(clients))
	for i, c := range clients {
		fabs[i] = c
	}
	d, err := exchangeRounds(fabs, r.p.netRounds)
	r.op(err)
	rounds := float64(r.p.netRounds)
	r.set("netcomm."+plane+".round_us", float64(d.Microseconds())/rounds)
	if plane != netcomm.DataPlaneP2P {
		r.set("netcomm."+plane+".relay_kb_per_round", float64(hub.DataBytes())/rounds/1e3)
	}
	if plane != netcomm.DataPlaneHub {
		// standing window memory: what the mesh's receive windows pin
		// once the run has settled
		var granted int64
		for _, c := range clients {
			for _, cs := range c.ConnStats() {
				granted += cs.RecvWindow
			}
		}
		r.set("netcomm."+plane+".window_mb", float64(granted)/1e6)
	}
	return nil
}
