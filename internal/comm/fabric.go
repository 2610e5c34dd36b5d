package comm

import (
	"repro/internal/barrier"
	"repro/internal/ser"
)

// Fabric is the transport seam of the BSP engines: everything a job
// needs to move bytes and synchronize between workers, with no
// assumption that the workers share an address space. The engines speak
// only this interface (plus barrier.Barrier); the in-process
// implementation below keeps the zero-copy shared-memory fast path,
// while internal/netcomm implements the same contract with
// length-prefixed frames over TCP/Unix sockets so workers can live in
// separate processes.
//
// The per-round protocol every endpoint follows is fixed:
//
//	serialize into Out(dst) for every dst  (dst == own id is loopback)
//	Flush()                                 publish the round
//	Barrier().Wait()                        all sends published
//	read In(src) for every src              deliver
//	Barrier().Wait() / AllReduce(...)       all inputs consumed
//	Release()                               recycle the round's buffers
//
// In(src) is valid only between the post-flush crossing and the next
// crossing; Release may only be called after the post-deliver crossing
// (which proves every peer is done reading this worker's buffers).
type Fabric interface {
	// NumWorkers returns the job-wide worker count M.
	NumWorkers() int
	// LocalWorkers returns the ids of the workers hosted in this
	// process, ascending. The engines spawn one goroutine per local
	// worker; remote ids have no endpoint here.
	LocalWorkers() []int
	// Endpoint returns the per-worker transport handle for a local
	// worker id.
	Endpoint(id int) Endpoint
	// Barrier returns the job's synchronization barrier, shared by all
	// local workers (and, for distributed fabrics, coordinated with the
	// remote processes over the control connection).
	Barrier() barrier.Barrier
	// Stats returns the communication statistics accumulated so far.
	// For distributed fabrics the process-local view covers only
	// locally observable traffic; job-wide totals live on the hub.
	Stats() Stats
	// Close releases transport resources. Engines do not call it — the
	// fabric's owner does, after every Run sharing it has returned.
	Close() error
}

// Endpoint is one worker's handle on the fabric. It is not safe for
// concurrent use; exactly one worker goroutine owns it.
type Endpoint interface {
	// Out returns the outgoing staging buffer for dst this round.
	Out(dst int) *ser.Buffer
	// Flush publishes the round's outgoing buffers. Neither fabric does
	// I/O here (in-process: accounting only, the buffers are shared;
	// socket: the frames are queued and reach the wire with the
	// process's arrival at the next crossing, so a transport failure
	// surfaces there, as an aborted barrier). An error returned here
	// fails the worker.
	Flush() error
	// In returns the buffer received from src this round.
	In(src int) *ser.Buffer
	// Release recycles the round's buffers.
	Release()
}

// InProc is the shared-memory Fabric: all M workers in one process,
// exchanging through the zero-copy Exchanger matrix and synchronizing
// on the atomic in-process barrier.
type InProc struct {
	ex  *Exchanger
	bar *barrier.Shared
	loc []int
	eps []inprocEndpoint
}

// NewInProc creates the in-process fabric for m workers.
func NewInProc(m int, cost CostModel) *InProc {
	f := &InProc{
		ex:  NewExchanger(m, cost),
		bar: barrier.New(m),
		loc: make([]int, m),
		eps: make([]inprocEndpoint, m),
	}
	for i := 0; i < m; i++ {
		f.loc[i] = i
		f.eps[i] = inprocEndpoint{ex: f.ex, id: i}
	}
	return f
}

// Exchanger exposes the underlying buffer matrix (for policy tweaks
// like SetShrinkPolicy).
func (f *InProc) Exchanger() *Exchanger { return f.ex }

// NumWorkers implements Fabric.
func (f *InProc) NumWorkers() int { return f.ex.NumWorkers() }

// LocalWorkers implements Fabric: every worker is local.
func (f *InProc) LocalWorkers() []int { return f.loc }

// Endpoint implements Fabric.
func (f *InProc) Endpoint(id int) Endpoint { return &f.eps[id] }

// Barrier implements Fabric.
func (f *InProc) Barrier() barrier.Barrier { return f.bar }

// Stats implements Fabric.
func (f *InProc) Stats() Stats { return f.ex.Stats() }

// Close implements Fabric. The in-process fabric holds no external
// resources.
func (f *InProc) Close() error { return nil }

type inprocEndpoint struct {
	ex *Exchanger
	id int
}

func (e *inprocEndpoint) Out(dst int) *ser.Buffer { return e.ex.Out(e.id, dst) }
func (e *inprocEndpoint) Flush() error            { e.ex.FinishSerialize(e.id); return nil }
func (e *inprocEndpoint) In(src int) *ser.Buffer  { return e.ex.In(e.id, src) }
func (e *inprocEndpoint) Release()                { e.ex.ResetRow(e.id) }
