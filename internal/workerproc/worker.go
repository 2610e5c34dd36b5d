package workerproc

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/ckpt"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/netcomm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ser"
)

// ChildEnv marks a process as a spawned graphworker; test binaries
// re-exec themselves with it set so no separate binary must be built to
// exercise real multi-process jobs.
const ChildEnv = "GRAPHWORKER_CHILD"

// Main is the graphworker entry point: a loop that takes one job
// descriptor at a time from ctl, runs the process's share of that job,
// and answers with an ack once it is ready for the next. The graph
// views it loads stay resident between jobs. It returns when ctl ends —
// the pool closed the channel, or the coordinator process is gone — so
// a worker never outlives its coordinator. A job's failure never ends
// the loop: it travels to the coordinator in the result blob or, when
// no blob could be shipped, in the ack.
func Main(ctl io.Reader, acks io.Writer, stderr io.Writer) int {
	w := &worker{
		log:     slog.New(slog.NewTextHandler(stderr, nil)),
		exports: make(map[string]*export),
	}
	for {
		frame, err := readFrame(ctl)
		if err == io.EOF {
			return 0
		}
		if err != nil {
			w.log.Error("control channel failed", "err", err)
			return 1
		}
		d, err := decodeDescriptor(frame)
		if err != nil {
			// nothing sane to ack: exiting is what tells the coordinator
			w.log.Error("bad job descriptor", "err", err)
			return 1
		}
		if err := writeFrame(acks, w.run(d).encode()); err != nil {
			w.log.Error("control channel failed", "err", err)
			return 1
		}
	}
}

// worker is the state a graphworker keeps between jobs.
type worker struct {
	log *slog.Logger
	// exports caches what was loaded from each view export, keyed by
	// the export's path. The coordinator writes an export once and
	// removes it when the view behind it is freed, so a path that still
	// exists still names the same content, and one that is gone marks
	// the copy here as garbage.
	exports map[string]*export
}

// export is one loaded snapshot: the graph and, per placement a job has
// asked for so far, the partition rebuilt from the embedded owner vector
// with its fragments. The fragments keep whatever they derive lazily
// (reverse adjacency, scatter plans), so a repeat job builds nothing.
type export struct {
	g          *graph.Graph
	placements []graph.Placement
	views      map[string]*view
}

type view struct {
	part  *partition.Partition
	frags *frag.Fragments
}

// view returns the job's view from the cache, loading the export and
// building the placement as needed. cached reports a full hit.
func (w *worker) view(d *descriptor) (g *graph.Graph, v *view, cached bool, err error) {
	for path := range w.exports {
		if _, err := os.Stat(path); err != nil {
			delete(w.exports, path)
		}
	}
	ex := w.exports[d.snapshot]
	if ex == nil {
		g, placements, err := graph.ReadSnapshotFile(d.snapshot)
		if err != nil {
			return nil, nil, false, fmt.Errorf("load snapshot: %w", err)
		}
		ex = &export{g: g, placements: placements, views: make(map[string]*view)}
		w.exports[d.snapshot] = ex
	}
	if v, ok := ex.views[d.placement]; ok {
		return ex.g, v, true, checkWorkers(d, v.part)
	}
	for _, p := range ex.placements {
		if p.Name != d.placement {
			continue
		}
		part, err := partition.FromOwners(p.Workers, p.Owner)
		if err != nil {
			return nil, nil, false, fmt.Errorf("placement %q: %w", p.Name, err)
		}
		if err := checkWorkers(d, part); err != nil {
			return nil, nil, false, err
		}
		v := &view{part: part, frags: frag.Build(ex.g, part)}
		ex.views[d.placement] = v
		return ex.g, v, false, nil
	}
	return nil, nil, false, fmt.Errorf("snapshot has no placement %q", d.placement)
}

func checkWorkers(d *descriptor, part *partition.Partition) error {
	if part.NumWorkers() != d.m {
		return fmt.Errorf("placement %q has %d workers, job expects %d", d.placement, part.NumWorkers(), d.m)
	}
	return nil
}

// run executes one job. Whatever happens, it returns an ack: the
// process is idle again afterwards.
func (w *worker) run(d *descriptor) ack {
	log := w.log.With("workers", fmt.Sprintf("%d-%d", d.lo, d.hi), "algorithm", d.algorithm)
	a := ack{seq: d.seq}
	t0 := time.Now()
	g, v, cached, err := w.view(d)
	a.cached, a.load = cached, time.Since(t0)
	if err != nil {
		log.Error("view load failed", "err", err)
		a.err = reportFailure(d, err)
		return a
	}

	var flows *obs.FlowAccum
	if d.flows {
		flows = obs.NewFlowAccum(d.m)
		flows.SetPlane("hub")
	}
	client, err := netcomm.Dial(d.network, d.addr, d.lo, d.hi, d.m)
	if err != nil {
		log.Error("joining the job failed", "err", err)
		a.err = err.Error()
		return a
	}
	defer client.Close()

	opts := algorithms.Options{
		Part:          v.part,
		Frags:         v.frags,
		MaxSupersteps: d.maxSupersteps,
		Fabric:        client,
		Flows:         flows,
	}
	if d.ckptDir != "" || d.fault != nil {
		hook := &ckpt.Hook{Job: d.ckptJob, Interval: d.ckptInterval, Restore: d.restore}
		if d.ckptDir != "" {
			hook.Store = ckpt.NewDir(d.ckptDir)
		}
		if d.fault != nil {
			hook.Probe = d.fault.probe(client)
		}
		opts.Checkpoint = hook
	}
	if d.trace {
		opts.Observer = &liveObserver{client: client, buf: ser.NewBuffer(256)}
	}
	spec, _ := algorithms.Lookup(d.algorithm) // vetted by decodeDescriptor
	res, runErr := spec.Run(d.engine, d.variant, g, opts, d.params)

	var flowMatrix *obs.FlowMatrix
	if flows != nil && runErr == nil {
		flowMatrix = flows.Matrix()
	}
	buf := ser.NewBuffer(4096)
	encodePartial(buf, v.part, d.lo, d.hi, res, flowMatrix, runErr)
	if err := client.SendResult(buf.Bytes()); err != nil {
		log.Error("shipping the result failed", "err", err)
		a.err = fmt.Sprintf("ship result: %v", err)
	}
	if runErr != nil {
		log.Error("run failed", "err", runErr)
		if terr := client.Err(); terr != nil {
			log.Error("transport error", "err", terr)
		}
	}
	return a
}

// reportFailure ships a failure that struck before the job's fabric
// existed the way a run error travels: as an error partial in the
// result blob, after aborting the job so the other processes unwind
// instead of waiting on a barrier this one will never reach. The
// returned string is empty on success, else what the ack must carry
// instead.
func reportFailure(d *descriptor, cause error) string {
	client, err := netcomm.Dial(d.network, d.addr, d.lo, d.hi, d.m)
	if err == nil {
		defer client.Close()
		client.Barrier().Abort()
		buf := ser.NewBuffer(256)
		encodePartial(buf, nil, d.lo, d.hi, nil, nil, cause)
		if err = client.SendResult(buf.Bytes()); err == nil {
			return ""
		}
	}
	return fmt.Sprintf("%v (and reporting it failed: %v)", cause, err)
}

// liveObserver is the process's only record of its superstep samples:
// it encodes each one and queues it on the client, to ride the
// process's next write to the hub — at most one barrier crossing later,
// and ahead of the result blob on the same stream, so the job's trace
// is complete once the results are in.
type liveObserver struct {
	client *netcomm.Client

	mu  sync.Mutex // hosted workers observe concurrently
	buf *ser.Buffer
}

func (o *liveObserver) ObserveSuperstep(s obs.SuperstepSample) {
	o.mu.Lock()
	o.buf.Reset()
	encodeSamples(o.buf, []obs.SuperstepSample{s})
	o.client.SendSamples(o.buf.Bytes())
	o.mu.Unlock()
}
