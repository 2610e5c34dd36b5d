// Package repro reproduces "Composing Optimization Techniques for
// Vertex-Centric Graph Processing via Communication Channels" (Zhang &
// Hu, IPDPS 2019). The library lives under internal/: engine plus
// channel is the channel-based system (the paper's contribution; a
// program is a set of channels and a compute function, as in Fig. 1),
// pregel and blogel behaviours provide the baselines, algorithms
// implements the paper's evaluation programs behind a shared
// (algorithm, engine, variant) registry — the one way to run a named
// program — and harness writes Tables IV-VII down once, as a table of
// rows run through that registry and the paper's claims between them.
// The top-level bench_test.go ranges over the same rows as testing.B
// sub-benchmarks, and the harness tests assert every claim.
//
// Both engines run on one superstep driver, internal/bsp: the paper's
// Fig. 4 loop written once — the set-up crossing, compute phase,
// exchange rounds (the checkpoint cut after round 1's serialize),
// termination — with cancellation, error joining and the Observer and
// Checkpoint seams wired there. The channel engine and the Pregel baseline supply only
// their compute loop, what a round carries and whether another round is
// wanted, so Tables IV-VII compare the two on communication alone. Both
// engines' Config and algorithms.Options are the driver's run
// environment, bsp.Env.
//
// Beyond the batch reproduction, cmd/graphd serves the engines as a
// long-lived job service: internal/catalog caches datasets (loaded
// once, singleflight, LRU byte budget), internal/jobs runs submissions
// on a bounded worker pool, and internal/server exposes the HTTP/JSON
// /v1 API. See README.md for a curl quickstart.
//
// Graphs can change while queries run. internal/live holds the
// epoch/delta design: a live graph is an immutable base CSR (an Epoch)
// plus an append-only delta log of batched edge insertions/deletions
// (last-write-wins per (src, dst) pair). Readers pin an epoch by
// refcount — a job computes over one consistent snapshot for its whole
// run and records the epoch in its metrics — while a background
// compactor merges the log into a new CSR, rebuilds the partitions and
// fragments the outgoing epoch had materialized (in parallel, with the
// same builders the static path uses), publishes the new epoch
// atomically, and retires superseded epochs the moment their last pin
// drops, releasing their bytes from the catalog budget. The same Epoch
// type also wraps every static dataset (never superseded), so view
// construction has exactly one implementation. Ingest rides POST
// /v1/datasets/{name}/edges (JSON or text edge-list bodies); running
// jobs are cancellable through the same barrier-abort path workers use
// for failure unwinding (DELETE /v1/jobs/{id}).
//
// The exchange fabric is dense end to end, which is the paper's central
// performance argument taken to its conclusion: every channel addresses
// a remote vertex by its dense local index on its owner (the partition
// gives every vertex a (owner, localIndex) pair), the combining channels
// stage outgoing messages in flat per-destination-worker slots keyed by
// that index, and receivers index straight into flat slices — no hash
// map is touched on any per-superstep send or receive path. The Pregel
// baseline stages and delivers through the same slot types
// (internal/bsp), so the two engines differ in their message format and
// combiner scope, not in a data structure. The
// channels that address values to vertices (DirectMessage,
// CombinedMessage, Propagation) share one update frame — a
// count, the local indices as uvarints, then the values as one slice —
// and one checked reader for it. Staging slots are stamped with the
// superstep that wrote them rather than cleared, frame decoding reuses
// one sub-buffer per worker, and the barrier crossings of the exchange
// loop are atomic sense-reversing waits (internal/barrier), so the
// steady-state exchange path performs no allocation at all.
// tools/bench.sh snapshots the Table IV-VII benchmarks into versioned
// BENCH_<n>.json files; see the README's Performance section.
//
// Worker state is shared-nothing: internal/frag builds, once per
// (dataset, workers, placement), a per-worker CSR Fragment whose
// adjacency entries are packed pre-resolved addresses — destination
// worker in the high 32 bits of one word, destination local index in
// the low 32 — so during supersteps a worker never touches the global
// graph or the partition's Owner/LocalIndex arrays. Algorithms iterate
// Worker.Frag().Neighbors(li) and hand the packed addresses straight to
// the channels (Send/AddAddr/Request), replacing two dependent random
// lookups per edge with a sequential scan; the raw address order equals
// (worker, local) order. A fragment also derives, on first use and
// cached for the life of the view (shared by every job on it, charged
// to the catalog budget), the scatter plan of Fig. 5: its adjacency
// transposed and counting-sorted by destination per destination worker,
// its runs ranked by length and stored frag.Lanes at a time, column by
// column, which is the order the fold kernels read them in.
// ScatterCombine.UseFragment adopts it zero-copy, a superstep is one
// gather-reduce over the plan, and the wire carries each destination
// list once and values only afterwards (ScatterCombine's doc comment
// holds the format); AddAddr builds the same plan privately for custom
// edge sets. The
// gather-reduce itself belongs to the combiner, not to the channel: the
// paper's C++ templates inline the user's combiner into that scan, Go
// generics instantiate per memory layout and leave a func-typed
// combiner an indirect call per edge, so channel.Combiner is a reducer
// that carries its own loops — Combine(a, b), a run fold over one plan
// segment (sources of a run combined left to right, which keeps float
// sums bit-identical; four length-matched runs advance in lockstep, so
// the scan is not bound by the latency of one chain of dependent adds)
// and an indexed merge into the epoch-stamped inbox
// — with Sum and Min written over a native + and min, and CombinerFunc
// deriving all three from any function for custom message types.
// ser.EncodeSlice/DecodeSlice are the matching slice form of a codec
// (fixed-width codecs through one Extend and one bounds check, every
// other codec through its per-value loop, same bytes), so a dense
// ScatterCombine superstep is three calls per peer worker on each side
// whatever the segment's size. Only a pre-calculated plan can be folded
// in bulk — the fold needs each destination's sources laid out as a run
// before the values exist, which is Fig. 5's pre-calculation — so the
// channels that learn destinations one Send at a time (CombinedMessage,
// and the driver's Aggregator) take the same Combiner and stage through
// its Combine per message; CombinedMessage merges each update frame it receives through
// its indexed merge loop, as ScatterCombine does. Propagation has a pre-calculation of its own, cached on the
// fragment beside the scatter plan: the push plan (frag.PushPlan) holds
// one target per edge — a local neighbour's index, or a dense slot that
// stands for one distinct remote neighbour — and the channel keeps
// vertex values and per-slot outgoing values in one table indexed by
// target, so the traversal of Fig. 7 is the Combiner's relax loop (push
// one value along one vertex's row) and a received frame its absorb
// loop (apply a block of index/value pairs; a weighted row after its
// edge transform is one too), over a native compare: Propagation takes
// Min alone, the combiner that brings these loops. A plan of
// an unweighted edge set whose local part is symmetric also carries its
// local components (Blogel's blocks) and each component's deduplicated
// slots; with Min's spread kernel and no transform a round then settles
// a component at once — every member takes the fold of the component's
// seeds and the fold is staged once per slot — and walks rows only for a
// component where a member that is no seed holds a value the fold would
// not move. Directed and weighted plans walk rows; the builder
// transposes only a plan whose local vertices each have as many local
// edges in as out, which a symmetric part has. A slot keeps what it
// last staged until the superstep ends, so an update that would not
// change it is not sent again (sound while values move by
// Combine alone, i.e. until the next compute phase, where SetValue may
// raise one: AfterCompute forgets the slots), and frames are count,
// indices, then the values as one slice, checked against the receiver's
// vertex range before anything is applied. The same builder makes the
// plan of AddAddr registrations, reusing its scratch, for the edge sets
// Min-Label SCC registers per round. RequestRespond deduplicates as requests are made
// (a sparse set over the owner's local indices), answers Respond with
// one index, and rejects in Deserialize the two things a hostile peer
// could otherwise turn into an index outside the engine's recover: a
// requested vertex outside the responder's range and a response list of
// another length than the request list. Channels take addresses only:
// a dynamic destination known by id (a pointer chase, a request target)
// is Worker.Addr(id), so the paper's send_message(dst, m) is
// Send(w.Addr(dst), m). Because a
// fragment plus its channels is the complete per-worker state, workers
// no longer need any shared mutable structure — the stepping stone to
// running them in separate processes. Fragments are cached by the
// catalog per (dataset, workers, placement) view, charged to its LRU
// byte budget, and binary snapshots (version 2) can embed named owner
// vectors so a daemon restart skips re-partitioning.
//
// That stepping stone is now crossed: the transport is pluggable behind
// two seams, and workers really do run in separate processes. The
// comm.Fabric interface (per-worker endpoints: serialize into Out,
// Flush, read In, Release) carries the data plane and barrier.Barrier
// (Wait + AllReduce, a crossing that also sums one 64-bit word from
// every worker, + Gather, one that hands every worker every worker's
// aggregator post, at round 1's post-flush crossing) the control plane;
// the engines ship their shared state
// — exchange-round again-flags, has-active flags, stop votes — inside
// one reduce word (barrier.Vote), so no engine or channel code reads
// another worker's memory and a superstep costs two crossings per
// exchange round, termination and checkpoints included: a checkpoint
// is written before round 1's flush, so that round's crossing proves
// every worker's record durable.
// The in-process implementations keep the zero-copy buffer matrix and
// the atomic sense-reversing barrier; internal/netcomm implements the
// same contract as length-prefixed frames over TCP/Unix sockets in a
// star around a hub that routes frames, relays each process's barrier
// arrival to every other process — each process counts the arrivals
// and decides a crossing, and its reduce value, itself — and turns a
// dropped connection into a job-wide barrier abort. Neither fabric counts anything: the superstep
// driver counts a job's bytes, rounds and flows once, just before each
// worker's flush, and derives the modeled network time of the paper's
// cluster (1 ms per exchange round plus the busiest worker's bytes at
// 750 Mbps) from the same counts. On that star a process
// makes one gathered write per barrier crossing — Flush only queues
// frames, and the process's last local arrival writes them with the
// queued superstep samples and the arrival itself — frames between
// workers of one process never leave it, and the hub coalesces its
// relay writes per batch it read, an arrival behind the frames its
// sender wrote before it, so the last process to arrive at a crossing
// finds it complete without a round trip to the hub. cmd/graphworker (internal/workerproc) is the worker process,
// and it is warm: graphd -worker-procs N keeps a pool of them, a job
// borrows a party of N, and each process outlives the job. A worker
// takes no flags — a job arrives as one length-prefixed, defensively
// decoded descriptor on its stdin, an ack goes back on stdout, and end
// of input (the pool closed, or graphd died) is what makes it exit, so
// no worker is ever left behind. The view a job runs on is exported
// once per view (binary snapshot with an embedded owner vector, in the
// pool's directory, removed when the catalog frees the view) and cached
// worker-side under that path — graph, rebuilt partition, fragments and
// what they derive — so a repeat job ships no graph bytes, execs
// nothing and builds nothing: it joins a fresh per-attempt hub, runs
// the registry code path unchanged, and ships a compact partial result
// merged by vertex ownership at the coordinator. The equivalence sweep
// pins the whole stack to oracle-identical results across processes,
// placements, engines and variants, all on the same warm processes;
// killing a worker process mid-superstep fails the job with a joined
// error rather than a hang (or, with recovery on, respawns only that
// slot while the survivors re-join from the checkpoint).
//
// The hub is the socket fabric's one data plane, as Fig. 2 asks: one
// binary buffer per (src, dst) pair per round, delivered ahead of its
// sender's arrival at the round's crossing. It needs no flow control: the round protocol keeps
// every sender within one round of its slowest receiver, so a
// receiver never holds more than one round's frames.
//
// Observability reaches below the superstep trace to the flow level.
// Every job accumulates an obs.FlowAccum — a dense (src, dst) matrix
// recorded lock-free by the driver at the flush seam both fabrics
// share, plus per-process relay stats on the hub — served as the flows section of
// GET /v1/jobs/{id}/report with an identical shape on both fabrics.
// Worker processes ship their matrix share piggybacked on the result
// blobs, and only a successful attempt contributes, so recovery never
// double-counts. State transitions and completed supersteps stream as
// Server-Sent Events from /v1/jobs/{id}/events: distributed workers
// send each superstep sample over the hub control connection as it
// completes, the job's trace fires a step event exactly once when the
// last worker's sample lands (idempotent across recovery replays), and
// per-job sequence numbers let a slow consumer detect drops.
// obs.Diagnose correlates trace, flows and metrics into the report's
// diagnosis section, run over the same trace and flow snapshots the
// report serves: straggler ranking by barrier-wait deficit
// against a fleet-common time denominator (so a worker whose time
// vanished outside the instrumented regions still stands out), with
// cause attribution (compute, or unattributed external slowness);
// compute imbalance against the placement's edge cut; and hub relay
// hotspots — each finding carrying its threshold, the measured value
// and a recommendation.
package repro
