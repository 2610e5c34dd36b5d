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
//	Barrier().Wait() / Gather(...)          all sends published
//	read In(src) for every src              deliver
//	Barrier().Wait() / AllReduce(...)       all inputs consumed
//	Release()                               recycle the round's buffers
//
// The superstep driver makes round 1's post-flush crossing a Gather
// when the job has aggregators: the posts ride the crossing, not the
// buffers, and the post-deliver crossing that follows proves every
// party has read them, as it proves every buffer read.
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
	// I/O here (in-process: nothing at all, the buffers are shared;
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

// NewInProc creates the in-process fabric for m workers. The CostModel
// argument is ignored: ROADMAP direction 4(d) deletes it.
func NewInProc(m int, _ ...CostModel) *InProc {
	f := &InProc{
		ex:  NewExchanger(m),
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

// NumWorkers implements Fabric.
func (f *InProc) NumWorkers() int { return f.ex.NumWorkers() }

// LocalWorkers implements Fabric: every worker is local.
func (f *InProc) LocalWorkers() []int { return f.loc }

// Endpoint implements Fabric.
func (f *InProc) Endpoint(id int) Endpoint { return &f.eps[id] }

// Barrier implements Fabric.
func (f *InProc) Barrier() barrier.Barrier { return f.bar }

// Close implements Fabric. The in-process fabric holds no external
// resources.
func (f *InProc) Close() error { return nil }

type inprocEndpoint struct {
	ex *Exchanger
	id int
}

func (e *inprocEndpoint) Out(dst int) *ser.Buffer { return e.ex.Out(e.id, dst) }
func (e *inprocEndpoint) Flush() error            { return nil }
func (e *inprocEndpoint) In(src int) *ser.Buffer  { return e.ex.In(e.id, src) }
func (e *inprocEndpoint) Release()                { e.ex.ResetRow(e.id) }
