package pregel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bsp"
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
	if cfg.Combiner != nil {
		w.comb = bsp.NewOutbox[M](w.Part())
		w.in = bsp.NewStamped[M](n)
	} else {
		w.out = make([]bsp.Updates[M], m)
		w.inbox = bsp.NewInbox[M](n)
	}
	if cfg.Responder != nil {
		w.at = bsp.NewStamped[frag.Addr](n)
		w.req = bsp.NewOutbox[struct{}](w.Part())
		w.asked = make([][]uint32, m)
		w.resp = make([]bsp.Stamped[R], m)
		for o := range w.resp {
			w.resp[o] = bsp.NewStamped[R](w.Part().LocalCount(o))
		}
	}
	if cfg.AggCombine != nil {
		w.agg = bsp.NewAggregator(&w.Core, cfg.AggCodec, cfg.AggCombine, cfg.AggZero)
	}
	if cfg.GhostThreshold > 0 {
		w.buildGhostTables()
		w.ghost = make([]bsp.Updates[M], m)
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

// Again groups the messages round 1 delivered without a combiner into
// the inbox; round 2, which delivers none, runs with reqresp only.
func (p program[M, R, A]) Again() bool {
	p.inbox.Group(int32(p.Superstep()))
	return p.Round() == 1 && p.cfg.Responder != nil
}

// SaveState records the engine-private state that round 1's outgoing
// buffers do not carry — the per-vertex request stamps, which were
// written by Request calls during compute and index next superstep's
// responses. The staged messages and requests are in those buffers;
// inboxes, asked lists and responses are what the restored rounds
// deliver.
func (p program[M, R, A]) SaveState(rec *ckpt.Record) {
	if p.cfg.Responder == nil {
		return
	}
	buf := ser.NewBuffer(4096)
	ckpt.SaveSlice(buf, ser.VarintCodec[frag.Addr]{}, p.at.Val)
	ckpt.SaveSlice(buf, ser.VarintCodec[int32]{}, p.at.Epoch)
	rec.Engine = append([]byte(nil), buf.Bytes()...)
}

func (p program[M, R, A]) RestoreState(rec *ckpt.Record) error {
	w, cfg := p.Worker, p.cfg
	if len(rec.Channels) != 0 {
		return fmt.Errorf("record does not match job shape (%d channels)", len(rec.Channels))
	}
	if cfg.Responder != nil {
		eng := ser.FromBytes(rec.Engine)
		ckpt.LoadSlice(eng, ser.VarintCodec[frag.Addr]{}, w.at.Val)
		ckpt.LoadSlice(eng, ser.VarintCodec[int32]{}, w.at.Epoch)
		if eng.Remaining() != 0 {
			return fmt.Errorf("record engine blob has %d trailing bytes", eng.Remaining())
		}
		// the next compute reads the cut superstep's requests as
		// indices into the responses
		for li, a := range w.at.Val {
			if w.at.Epoch[li] == int32(rec.Superstep) &&
				(a.Worker() >= w.NumWorkers() || int(a.Local()) >= w.Part().LocalCount(a.Worker())) {
				return fmt.Errorf("record has vertex %d requesting local %d of worker %d, outside the job", li, a.Local(), a.Worker())
			}
		}
	} else if len(rec.Engine) != 0 {
		return fmt.Errorf("record carries engine state but no Responder is configured")
	}
	return nil
}

// messagesFor returns the messages delivered to li last superstep.
func (w *Worker[M, R, A]) messagesFor(li int) []M {
	prev := int32(w.Superstep() - 1)
	if w.cfg.Combiner != nil {
		if w.in.Epoch[li] == prev {
			return w.in.Val[li : li+1 : li+1]
		}
		return nil
	}
	return w.inbox.Messages(li, prev)
}

// writeMsgs writes a message section: a uvarint count, then each
// message as its destination — one fixed uint32, Pregel+'s id-tagged
// format and the byte count the channels are compared to — and its
// value.
func writeMsgs[M any](buf *ser.Buffer, codec ser.Codec[M], idx []uint32, vals []M) {
	buf.WriteUvarint(uint64(len(idx)))
	for k, li := range idx {
		buf.WriteUint32(li)
		codec.Encode(buf, vals[k])
	}
}

// local checks an index read off src's buffer against the n vertices it
// addresses: what passes is used as an index after Deserialize returns,
// outside the driver's recover.
func local(li uint32, n int, what string) int {
	if int(li) >= n {
		panic(fmt.Sprintf("pregel: %s for local index %d, worker hosts %d vertices", what, li, n))
	}
	return int(li)
}

func (w *Worker[M, R, A]) serializeRound1(dst int, buf *ser.Buffer) {
	cfg := w.cfg
	if cfg.Combiner != nil {
		idx, vals := w.comb.Drain(dst)
		writeMsgs(buf, cfg.MsgCodec, idx, vals)
	} else {
		writeMsgs(buf, cfg.MsgCodec, w.out[dst].Idx, w.out[dst].Vals)
		w.out[dst].Reset()
	}
	if cfg.GhostThreshold > 0 && w.ghostTo[dst] {
		writeMsgs(buf, cfg.MsgCodec, w.ghost[dst].Idx, w.ghost[dst].Vals)
		w.ghost[dst].Reset()
	}
	// requests, deduplicated as they were staged
	if cfg.Responder != nil {
		lst, _ := w.req.Drain(dst)
		buf.WriteUvarint(uint64(len(lst)))
		for _, li := range lst {
			buf.WriteUint32(li)
		}
	}
}

func (w *Worker[M, R, A]) deserializeRound1(src int, buf *ser.Buffer) {
	cfg := w.cfg
	n := w.LocalCount()
	// messages: the wire dense id is the local index — delivery is a
	// direct array write, no partition lookup
	nmsg := buf.ReadCount(math.MaxInt)
	for i := 0; i < nmsg; i++ {
		li := local(buf.ReadUint32(), n, "message")
		w.deliver(li, cfg.MsgCodec.Decode(buf))
	}
	// ghost broadcasts, from a worker whose hubs mirror here
	if cfg.GhostThreshold > 0 && w.ghostFrom[src] {
		ng := buf.ReadCount(math.MaxInt)
		for i := 0; i < ng; i++ {
			hub := buf.ReadUint32()
			adj, ok := w.ghostAdj[hub]
			if !ok {
				panic(fmt.Sprintf("pregel: ghost broadcast of vertex %d, which has no mirror here", hub))
			}
			msg := cfg.MsgCodec.Decode(buf)
			for _, li := range adj {
				w.deliver(int(li), msg)
			}
		}
	}
	// requests
	if cfg.Responder != nil {
		nr := buf.ReadCount(math.MaxInt)
		lis := w.asked[src][:0]
		for i := 0; i < nr; i++ {
			lis = append(lis, uint32(local(buf.ReadUint32(), n, "request")))
		}
		w.asked[src] = lis
	}
}

// serializeRound2 writes the responses to dst's requests in Pregel+'s
// reply format: (vertex id, value) pairs — the (dense) id is
// retransmitted with every response, which is the constant reply-size
// overhead §V-B2 measures.
func (w *Worker[M, R, A]) serializeRound2(dst int, buf *ser.Buffer) {
	cfg := w.cfg
	lis := w.asked[dst]
	buf.WriteUvarint(uint64(len(lis)))
	for _, li := range lis {
		buf.WriteUint32(li)
		cfg.RespCodec.Encode(buf, cfg.Responder(w, int(li)))
	}
}

func (w *Worker[M, R, A]) deserializeRound2(src int, buf *ser.Buffer) {
	cfg := w.cfg
	resp, e := &w.resp[src], int32(w.Superstep())
	nr := buf.ReadCount(math.MaxInt)
	for i := 0; i < nr; i++ {
		li := local(buf.ReadUint32(), len(resp.Val), "response")
		resp.Set(li, cfg.RespCodec.Decode(buf), e)
	}
}

// deliver routes one incoming message to local vertex li.
func (w *Worker[M, R, A]) deliver(li int, msg M) {
	if w.cfg.Combiner != nil {
		w.in.Merge(li, msg, int32(w.Superstep()), w.cfg.Combiner)
	} else {
		w.inbox.Rx.Add(uint32(li), msg)
	}
	w.ActivateLocal(li)
}

// buildGhostTables precomputes, for each hub vertex (degree >=
// threshold), the set of workers holding mirrors, and on the receiving
// side the hub's local neighbor lists; both sides of a worker pair
// derive from them whether its round-1 buffers carry a ghost section
// (and its count) at all. In the real system this is a
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
	w.ghostTo, w.ghostFrom = make([]bool, w.NumWorkers()), make([]bool, w.NumWorkers())
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
				w.ghostTo[o] = true
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
					w.ghostFrom[o] = true
				}
			}
		}
	}
}
