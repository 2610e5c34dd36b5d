package pregel

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/barrier"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/ser"
)

// errAborted marks a worker that stopped because a peer failed and
// aborted the shared barrier.
var errAborted = barrier.ErrAborted

// run executes the worker loop; a worker that fails aborts the shared
// barrier so its peers return instead of deadlocking.
func (w *Worker[M, R, A]) run(setup func(*Worker[M, R, A]), maxSteps int) error {
	err := w.runSupersteps(setup, maxSteps)
	if err != nil && !errors.Is(err, errAborted) {
		w.job.bar.Abort()
	}
	return err
}

// runSupersteps is the per-worker superstep loop of the baseline
// engine. The wire protocol is fixed by the configuration: round 1
// carries messages, ghost broadcasts, requests and aggregator partials;
// round 2 (present iff reqresp or an aggregator is configured) carries
// responses and the aggregator result.
func (w *Worker[M, R, A]) runSupersteps(setup func(*Worker[M, R, A]), maxSteps int) error {
	j := w.job
	cfg := w.cfg
	m := w.NumWorkers()

	// allocate engine state
	n := w.LocalCount()
	w.outDirect = make([][]dmsg[M], m)
	w.outComb = make([]map[uint32]M, m)
	for i := range w.outComb {
		w.outComb[i] = make(map[uint32]M)
	}
	if cfg.Combiner != nil {
		w.inComb = make([]M, n)
		w.inCombSet = make([]int32, n)
		w.scratch = make([]M, 1)
	} else {
		w.inboxList = make([][]M, n)
	}
	if cfg.Responder != nil {
		if cfg.RespCodec == nil {
			return fmt.Errorf("pregel: Responder requires RespCodec")
		}
		w.reqStaging = make([][]uint32, m)
		w.reqPending = make([][]uint32, m)
		w.asked = make([][]uint32, m)
		w.respVals = make([]map[uint32]R, m)
		for i := range w.respVals {
			w.respVals[i] = make(map[uint32]R)
		}
		w.reqOf = make([]frag.Addr, n)
		w.reqEpoch = make([]int32, n)
	}
	if cfg.AggCombine != nil && cfg.AggCodec == nil {
		return fmt.Errorf("pregel: AggCombine requires AggCodec")
	}
	w.aggResult = cfg.AggZero
	if cfg.GhostThreshold > 0 {
		if w.frag == nil {
			return fmt.Errorf("pregel: GhostThreshold requires Adjacency or Frags")
		}
		w.buildGhostTables()
		w.outGhost = make([][]dmsg[M], m)
	}

	setup(w)
	if w.Compute == nil {
		return fmt.Errorf("pregel: worker %d: setup did not install Compute", w.id)
	}
	ck := cfg.Checkpoint
	if ck.Active() && (w.ckptSave == nil || w.ckptRestore == nil) {
		return fmt.Errorf("pregel: worker %d: Config.Checkpoint is set but setup registered no Checkpoint closures", w.id)
	}
	w.active = make([]bool, n)
	for i := range w.active {
		w.active[i] = true
	}
	w.activeCount = n
	if !j.bar.Wait() {
		return errAborted
	}

	twoRounds := cfg.Responder != nil || cfg.AggCombine != nil
	w.obsOn = cfg.Observer != nil

	if ck.Active() && ck.Restore > 0 {
		done, rerr := w.restoreCheckpoint(ck, m, twoRounds)
		if rerr != nil {
			return fmt.Errorf("pregel: worker %d: restore checkpoint %d: %w", w.id, ck.Restore, rerr)
		}
		if done {
			return nil
		}
	}

	for {
		w.superstep++
		if w.superstep > maxSteps {
			return fmt.Errorf("pregel: exceeded MaxSupersteps=%d", maxSteps)
		}

		var stepStart time.Time
		if w.obsOn {
			w.obsSmp = obs.SuperstepSample{Worker: w.id, Superstep: w.superstep,
				ActiveVertices: int64(w.activeCount), Rounds: 1}
			if twoRounds {
				w.obsSmp.Rounds = 2
			}
			stepStart = time.Now()
		}

		// compute phase
		for li := 0; li < n; li++ {
			if !w.active[li] {
				continue
			}
			w.current = li
			w.Compute(li, w.messagesFor(li))
		}
		w.current = -1
		w.afterCompute()
		if w.obsOn {
			w.obsSmp.ComputeNS = time.Since(stepStart).Nanoseconds()
		}
		ck.FireProbe(w.id, w.superstep)
		if ck.ShouldSave(w.superstep) {
			w.ckptRec = w.snapshotCut(twoRounds)
		}

		// Two barrier crossings per round: the post-flush wait proves all
		// sends are published, the post-deliver reduce proves all inputs
		// were consumed, which makes Release safe — and carries the
		// termination vote, so the last round's crossing also decides
		// whether the job is over.
		vote, err := w.runRound(w.serializeRound1, w.deserializeRound1)
		if err == nil && twoRounds {
			vote, err = w.runRound(w.serializeRound2, w.deserializeRound2)
		}
		if err != nil {
			return err
		}

		// A superstep that cut a checkpoint publishes the record and then
		// crosses once more: that reduce is the proof that every worker's
		// cut for this superstep reached the store, making it complete
		// (the last round's crossing would certify records not yet
		// written), and the crossing a restore re-enters the loop through.
		if w.ckptRec != nil {
			rec := w.ckptRec
			w.ckptRec = nil
			buf := ser.NewBuffer(4096)
			rec.Encode(buf)
			if err := ck.Store.Put(ck.Job, w.superstep, w.id, buf.Bytes()); err != nil {
				return fmt.Errorf("pregel: worker %d: checkpoint superstep %d: %w", w.id, w.superstep, err)
			}
			ck.AfterSave(w.superstep)
			var ok bool
			if vote, ok = w.timedAllReduce(w.termVote()); !ok {
				return errAborted
			}
		}
		if w.obsOn {
			cfg.Observer.ObserveSuperstep(w.obsSmp)
		}
		if barrier.Terminated(vote) {
			return nil
		}
	}
}

// termVote is this worker's termination post: every worker's "still has
// an active vertex" and RequestStop flags, reduced in one word.
func (w *Worker[M, R, A]) termVote() uint64 {
	return barrier.Vote(false, w.activeCount > 0, w.halt)
}

// runRound runs one exchange round: serialize to every destination,
// flush, cross the publish barrier, decode every source, cross the
// consume barrier, release. It returns the termination votes reduced at
// the consume crossing, which stand once the superstep's last round has
// delivered. Per-destination buffer deltas feed the superstep sample
// when observation is on.
func (w *Worker[M, R, A]) runRound(serialize func(int, *ser.Buffer), decode func(int, *ser.Buffer)) (uint64, error) {
	m := w.NumWorkers()
	for dst := 0; dst < m; dst++ {
		buf := w.ep.Out(dst)
		mark := buf.Len()
		serialize(dst, buf)
		if w.obsOn {
			w.obsSmp.BytesSent += int64(buf.Len() - mark)
			w.obsSmp.FramesSent++
		}
	}
	var stall0 time.Duration
	if w.obsOn {
		stall0 = w.ep.Stall()
	}
	if err := w.ep.Flush(); err != nil {
		return 0, fmt.Errorf("pregel: worker %d: %w", w.id, err)
	}
	if w.obsOn {
		w.obsSmp.SendStallNS += int64(w.ep.Stall() - stall0)
	}
	if !w.timedWait() {
		return 0, errAborted
	}
	for src := 0; src < m; src++ {
		if err := w.deserializeFrom(src, decode); err != nil {
			return 0, err
		}
	}
	vote, ok := w.timedAllReduce(w.termVote())
	if !ok {
		return 0, errAborted
	}
	w.ep.Release()
	return vote, nil
}

// timedWait crosses the shared barrier, attributing the blocked time to
// the current sample when observation is on.
func (w *Worker[M, R, A]) timedWait() bool {
	if !w.obsOn {
		return w.job.bar.Wait()
	}
	t0 := time.Now()
	ok := w.job.bar.Wait()
	w.obsSmp.BarrierWaitNS += time.Since(t0).Nanoseconds()
	return ok
}

// timedAllReduce mirrors timedWait for the reducing crossings.
func (w *Worker[M, R, A]) timedAllReduce(v uint64) (uint64, bool) {
	if !w.obsOn {
		return w.job.bar.AllReduce(v)
	}
	t0 := time.Now()
	sum, ok := w.job.bar.AllReduce(v)
	w.obsSmp.BarrierWaitNS += time.Since(t0).Nanoseconds()
	return sum, ok
}

// deserializeFrom runs one round's decode of worker src's buffer.
// Buffers that arrived over a socket are untrusted: the recover turns a
// panicking decode on corrupt payload bytes into a worker error, so a
// bad frame fails the job with a diagnostic instead of killing the
// process (and every co-hosted worker with it).
func (w *Worker[M, R, A]) deserializeFrom(src int, decode func(int, *ser.Buffer)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pregel: worker %d: corrupt frame from worker %d: %v", w.id, src, r)
		}
	}()
	in := w.ep.In(src)
	if w.ckptRec != nil {
		w.ckptRec.Frames = append(w.ckptRec.Frames, append([]byte(nil), in.Unread()...))
	}
	if w.obsOn {
		w.obsSmp.BytesRecv += int64(in.Remaining())
		w.obsSmp.FramesRecv++
	}
	decode(src, in)
	return nil
}

// messagesFor returns the messages delivered to li last superstep.
func (w *Worker[M, R, A]) messagesFor(li int) []M {
	if w.cfg.Combiner != nil {
		if w.inCombSet[li] == int32(w.superstep-1) {
			w.scratch[0] = w.inComb[li]
			return w.scratch[:1]
		}
		return nil
	}
	return w.inboxList[li]
}

// afterCompute retires consumed inboxes and dedups requests.
func (w *Worker[M, R, A]) afterCompute() {
	if w.cfg.Combiner == nil {
		for _, li := range w.touched {
			w.inboxList[li] = w.inboxList[li][:0]
		}
		w.touched = w.touched[:0]
	}
	if w.cfg.Responder != nil {
		for o := range w.reqStaging {
			w.reqPending[o], w.reqStaging[o] = w.reqStaging[o], w.reqPending[o][:0]
			for k := range w.respVals[o] {
				delete(w.respVals[o], k)
			}
			w.asked[o] = w.asked[o][:0]
			lst := w.reqPending[o]
			if len(lst) == 0 {
				continue
			}
			sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
			k := 1
			for i := 1; i < len(lst); i++ {
				if lst[i] != lst[i-1] {
					lst[k] = lst[i]
					k++
				}
			}
			w.reqPending[o] = lst[:k]
		}
	}
	if w.cfg.AggCombine != nil {
		w.aggGathered = w.cfg.AggZero
		w.aggGathSet = false
	}
}

func (w *Worker[M, R, A]) serializeRound1(dst int, buf *ser.Buffer) {
	cfg := w.cfg
	// messages: one fixed uint32 dense id per message (Pregel+'s
	// id-tagged format — the byte count the channels are compared to)
	if cfg.Combiner != nil {
		staged := w.outComb[dst]
		buf.WriteUvarint(uint64(len(staged)))
		for li, msg := range staged {
			buf.WriteUint32(li)
			cfg.MsgCodec.Encode(buf, msg)
			delete(staged, li)
		}
	} else {
		staged := w.outDirect[dst]
		buf.WriteUvarint(uint64(len(staged)))
		for _, dm := range staged {
			buf.WriteUint32(dm.dst)
			cfg.MsgCodec.Encode(buf, dm.m)
		}
		w.outDirect[dst] = staged[:0]
	}
	// ghost broadcasts
	if cfg.GhostThreshold > 0 {
		staged := w.outGhost[dst]
		buf.WriteUvarint(uint64(len(staged)))
		for _, dm := range staged {
			buf.WriteUint32(dm.dst)
			cfg.MsgCodec.Encode(buf, dm.m)
		}
		w.outGhost[dst] = staged[:0]
	}
	// requests
	if cfg.Responder != nil {
		lst := w.reqPending[dst]
		buf.WriteUvarint(uint64(len(lst)))
		for _, li := range lst {
			buf.WriteUint32(li)
		}
	}
	// aggregator partial (to worker 0 only); the partial is consumed by
	// serializing it — the next superstep starts a fresh aggregation
	if cfg.AggCombine != nil && dst == 0 {
		buf.WriteBool(w.aggCurrSet)
		if w.aggCurrSet {
			cfg.AggCodec.Encode(buf, w.aggCurr)
		}
		w.aggCurr = cfg.AggZero
		w.aggCurrSet = false
	}
}

func (w *Worker[M, R, A]) deserializeRound1(src int, buf *ser.Buffer) {
	cfg := w.cfg
	// messages: the wire dense id is the local index — delivery is a
	// direct array write, no partition lookup
	nmsg := int(buf.ReadUvarint())
	for i := 0; i < nmsg; i++ {
		li := buf.ReadUint32()
		msg := cfg.MsgCodec.Decode(buf)
		w.deliver(int(li), msg)
	}
	// ghost broadcasts
	if cfg.GhostThreshold > 0 {
		ng := int(buf.ReadUvarint())
		for i := 0; i < ng; i++ {
			hub := buf.ReadUint32()
			msg := cfg.MsgCodec.Decode(buf)
			for _, li := range w.ghostAdj[hub] {
				w.deliver(int(li), msg)
			}
		}
	}
	// requests
	if cfg.Responder != nil {
		nr := int(buf.ReadUvarint())
		lis := w.asked[src][:0]
		for i := 0; i < nr; i++ {
			lis = append(lis, buf.ReadUint32())
		}
		w.asked[src] = lis
	}
	// aggregator partial (worker 0 only receives)
	if cfg.AggCombine != nil && w.id == 0 {
		if buf.ReadBool() {
			v := cfg.AggCodec.Decode(buf)
			if w.aggGathSet {
				w.aggGathered = cfg.AggCombine(w.aggGathered, v)
			} else {
				w.aggGathered = v
				w.aggGathSet = true
			}
		}
	}
}

func (w *Worker[M, R, A]) serializeRound2(dst int, buf *ser.Buffer) {
	cfg := w.cfg
	if cfg.Responder != nil {
		lis := w.asked[dst]
		buf.WriteUvarint(uint64(len(lis)))
		// Pregel+ reply format: (vertex id, value) pairs — the (dense) id
		// is retransmitted with every response, which is the constant
		// reply-size overhead §V-B2 measures.
		for _, li := range lis {
			buf.WriteUint32(li)
			cfg.RespCodec.Encode(buf, cfg.Responder(w, int(li)))
		}
	}
	if cfg.AggCombine != nil && w.id == 0 {
		cfg.AggCodec.Encode(buf, w.aggGathered)
	}
}

func (w *Worker[M, R, A]) deserializeRound2(src int, buf *ser.Buffer) {
	cfg := w.cfg
	if cfg.Responder != nil {
		nr := int(buf.ReadUvarint())
		for i := 0; i < nr; i++ {
			li := buf.ReadUint32()
			v := cfg.RespCodec.Decode(buf)
			w.respVals[src][li] = v
		}
	}
	if cfg.AggCombine != nil && src == 0 {
		w.aggResult = cfg.AggCodec.Decode(buf)
	}
}

// deliver routes one incoming message to local vertex li.
func (w *Worker[M, R, A]) deliver(li int, msg M) {
	if w.cfg.Combiner != nil {
		e := int32(w.superstep)
		if w.inCombSet[li] == e {
			w.inComb[li] = w.cfg.Combiner(w.inComb[li], msg)
		} else {
			w.inComb[li] = msg
			w.inCombSet[li] = e
		}
	} else {
		if len(w.inboxList[li]) == 0 {
			w.touched = append(w.touched, li)
		}
		w.inboxList[li] = append(w.inboxList[li], msg)
	}
	w.ActivateLocal(li)
}

// buildGhostTables precomputes, for each hub vertex (degree >=
// threshold), the set of workers holding mirrors, and on the receiving
// side the hub's local neighbor lists. In the real system this is a
// preprocessing exchange; here both sides are derived from the
// pre-resolved fragments (every fragment is readable by every worker in
// this in-process simulation), charging only the (real) CPU time.
func (w *Worker[M, R, A]) buildGhostTables() {
	fs := w.cfg.Frags
	thr := w.cfg.GhostThreshold
	n := w.LocalCount()
	w.hubSlot = make([]int32, n)
	for i := range w.hubSlot {
		w.hubSlot[i] = -1
	}
	w.ghostAdj = make(map[graph.VertexID][]int32)
	// own hubs: worker lists, from the fragment's packed adjacency
	seen := make([]bool, w.NumWorkers())
	for li := 0; li < n; li++ {
		if w.frag.OutDegree(li) < thr {
			continue
		}
		for i := range seen {
			seen[i] = false
		}
		var lst []int32
		for _, a := range w.frag.Neighbors(li) {
			if o := a.Worker(); !seen[o] {
				seen[o] = true
				lst = append(lst, int32(o))
			}
		}
		w.hubSlot[li] = int32(len(w.hubWorkers))
		w.hubWorkers = append(w.hubWorkers, lst)
	}
	// mirror adjacency: any hub on any worker with neighbors here
	for o := 0; o < fs.NumWorkers(); o++ {
		fo := fs.Frag(o)
		for li := 0; li < fo.LocalCount(); li++ {
			if fo.OutDegree(li) < thr {
				continue
			}
			hub := fo.GlobalID(li)
			for _, a := range fo.Neighbors(li) {
				if a.Worker() == w.id {
					w.ghostAdj[hub] = append(w.ghostAdj[hub], int32(a.Local()))
				}
			}
		}
	}
}
