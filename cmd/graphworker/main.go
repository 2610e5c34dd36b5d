// Command graphworker is one warm worker process of a graphd pool. It
// is started by graphd (-worker-procs N) — or by any coordinator using
// internal/workerproc — never by hand, and takes no flags: everything a
// job needs arrives as a job descriptor.
//
// The process lives across jobs. Its stdin and stdout are its control
// channel: the coordinator writes one length-prefixed descriptor per job
// (algorithm, engine, variant and params; the hosted worker range; the
// attempt's hub address; the view export to run
// on; checkpoint, restore and fault settings), the worker runs its share
// and answers with one ack when it is ready for the next. End of input
// is the only way it ends: the coordinator closed the pool, or died —
// either way no worker is left behind.
//
// For each job the worker takes the graph view from its cache, keyed by
// the path of the export it was loaded from — graph, partition rebuilt
// from the embedded owner vector, fragments, and whatever the fragments
// derived since (reverse adjacency, scatter plans) — and loads it only
// on first sight. graphd writes one export per view and removes it when
// the catalog frees that view; the worker drops its copy at the next
// dispatch after the file is gone. It then joins the attempt's socket
// fabric at the hub address, executes its hosted workers through the
// exact registry code path the in-process engines use, and ships its
// partial result back over the hub connection. A failure — an
// unreadable export as much as a run error — travels in that result
// blob and leaves the process alive and idle.
//
// The hub connection carries everything a job exchanges: join, barrier,
// abort, results, cost accounting and the data frames, which the hub
// relays between worker processes — see internal/netcomm. When the job
// asks for it the worker also records a per-superstep telemetry trace
// and the per-(src,dst) flow matrix and piggybacks both on its partial
// result.
// Diagnostics go to stderr as log/slog lines; the coordinator forwards
// each line tagged with the process's current worker range.
package main

import (
	"fmt"
	"os"

	"repro/internal/workerproc"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "graphworker takes no arguments: it is started by graphd -worker-procs and reads job descriptors on stdin")
		os.Exit(2)
	}
	os.Exit(workerproc.Main(os.Stdin, os.Stdout, os.Stderr))
}
