package pregel

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/ser"
)

// program is the baseline engine's side of the driver, kept off the
// Worker API the algorithms see.
type program[M, R, A any] struct{ *Worker[M, R, A] }

func (p program[M, R, A]) Setup() error {
	w, cfg := p.Worker, p.cfg
	m, n := w.NumWorkers(), w.LocalCount()
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
	w.rounds = 1
	if cfg.Responder != nil {
		w.reqStaging = make([][]uint32, m)
		w.reqPending = make([][]uint32, m)
		w.asked = make([][]uint32, m)
		w.respVals = make([]map[uint32]R, m)
		for i := range w.respVals {
			w.respVals[i] = make(map[uint32]R)
		}
		w.reqOf = make([]frag.Addr, n)
		w.reqEpoch = make([]int32, n)
		w.rounds = 2
	}
	if cfg.AggCombine != nil {
		w.rounds = 2
	}
	w.aggResult = cfg.AggZero
	if cfg.GhostThreshold > 0 {
		w.buildGhostTables()
		w.outGhost = make([][]dmsg[M], m)
	}
	w.setup(w)
	if w.Compute == nil {
		return errors.New("setup did not install Compute")
	}
	return nil
}

func (p program[M, R, A]) Initialize() {}

func (p program[M, R, A]) Compute() {
	w := p.Worker
	for li, n := 0, w.LocalCount(); li < n; li++ {
		if w.IsActiveLocal(li) {
			w.SetCurrent(li)
			w.Compute(li, w.messagesFor(li))
		}
	}
	w.SetCurrent(-1)
	w.afterCompute()
}

func (p program[M, R, A]) Serialize(dst int, buf *ser.Buffer) {
	if s := p.Sample(); s != nil {
		s.FramesSent++
	}
	if p.Round() == 1 {
		p.serializeRound1(dst, buf)
	} else {
		p.serializeRound2(dst, buf)
	}
}

// Deserialize decodes src's buffer for this round; the round's format
// accounts for every byte a healthy peer sends, so any left over fail
// the worker.
func (p program[M, R, A]) Deserialize(src int, in *ser.Buffer) error {
	if s := p.Sample(); s != nil {
		s.FramesRecv++
	}
	if p.Round() == 1 {
		p.deserializeRound1(src, in)
	} else {
		p.deserializeRound2(src, in)
	}
	if in.Remaining() != 0 {
		return fmt.Errorf("pregel: worker %d: %d trailing bytes in round %d from worker %d",
			p.WorkerID(), in.Remaining(), p.Round(), src)
	}
	return nil
}

func (p program[M, R, A]) Decoding() any { return nil }

func (p program[M, R, A]) Again() bool { return p.Round() < p.rounds }

// SaveState records the engine-private state that round 1's outgoing
// buffers do not carry — the per-vertex request stamps, which were
// written by Request calls during compute and index next superstep's
// responses. The staged messages, requests and aggregator partial are
// in those buffers; inboxes, asked lists, responses and the aggregator
// gather are what the restored rounds deliver.
func (p program[M, R, A]) SaveState(rec *ckpt.Record) {
	if p.cfg.Responder == nil {
		return
	}
	buf := ser.NewBuffer(4096)
	for _, a := range p.reqOf {
		buf.WriteUvarint(uint64(a))
	}
	for _, e := range p.reqEpoch {
		buf.WriteVarint(int64(e))
	}
	rec.Engine = append([]byte(nil), buf.Bytes()...)
}

func (p program[M, R, A]) RestoreState(rec *ckpt.Record) error {
	w, cfg := p.Worker, p.cfg
	if len(rec.Channels) != 0 {
		return fmt.Errorf("record does not match job shape (%d channels)", len(rec.Channels))
	}
	if cfg.Responder != nil {
		eng := ser.FromBytes(rec.Engine)
		for li := range w.reqOf {
			w.reqOf[li] = frag.Addr(eng.ReadUvarint())
		}
		for li := range w.reqEpoch {
			w.reqEpoch[li] = int32(eng.ReadVarint())
		}
		if eng.Remaining() != 0 {
			return fmt.Errorf("record engine blob has %d trailing bytes", eng.Remaining())
		}
	} else if len(rec.Engine) != 0 {
		return fmt.Errorf("record carries engine state but no Responder is configured")
	}
	if cfg.AggCombine != nil {
		// afterCompute ran before the live cut, so the gather side starts
		// the restored rounds zeroed.
		w.aggGathered = cfg.AggZero
		w.aggGathSet = false
	}
	return nil
}

// messagesFor returns the messages delivered to li last superstep.
func (w *Worker[M, R, A]) messagesFor(li int) []M {
	if w.cfg.Combiner != nil {
		if w.inCombSet[li] == int32(w.Superstep()-1) {
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
	nmsg := buf.ReadCount(math.MaxInt)
	for i := 0; i < nmsg; i++ {
		li := buf.ReadUint32()
		msg := cfg.MsgCodec.Decode(buf)
		w.deliver(int(li), msg)
	}
	// ghost broadcasts
	if cfg.GhostThreshold > 0 {
		ng := buf.ReadCount(math.MaxInt)
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
		nr := buf.ReadCount(math.MaxInt)
		lis := w.asked[src][:0]
		for i := 0; i < nr; i++ {
			lis = append(lis, buf.ReadUint32())
		}
		w.asked[src] = lis
	}
	// aggregator partial (worker 0 only receives)
	if cfg.AggCombine != nil && w.WorkerID() == 0 {
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
	if cfg.AggCombine != nil && w.WorkerID() == 0 {
		cfg.AggCodec.Encode(buf, w.aggGathered)
	}
}

func (w *Worker[M, R, A]) deserializeRound2(src int, buf *ser.Buffer) {
	cfg := w.cfg
	if cfg.Responder != nil {
		nr := buf.ReadCount(math.MaxInt)
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
		e := int32(w.Superstep())
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
		if w.Frag().OutDegree(li) < thr {
			continue
		}
		for i := range seen {
			seen[i] = false
		}
		var lst []int32
		for _, a := range w.Frag().Neighbors(li) {
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
				if a.Worker() == w.WorkerID() {
					w.ghostAdj[hub] = append(w.ghostAdj[hub], int32(a.Local()))
				}
			}
		}
	}
}
