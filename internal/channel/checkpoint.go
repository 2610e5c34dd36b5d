package channel

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/ser"
)

// The optimized channels carry cross-superstep state and participate in
// checkpoints; the standard channels (DirectMessage, CombinedMessage,
// Aggregator) are fully rebuilt by replay and stay stateless.
var (
	_ engine.StatefulChannel = (*ScatterCombine[int])(nil)
	_ engine.StatefulChannel = (*Propagation[int])(nil)
	_ engine.StatefulChannel = (*Mirror[int])(nil)
	_ engine.StatefulChannel = (*RequestRespond[int])(nil)
)

// Checkpoint state for the optimized channels (engine.StatefulChannel).
//
// The engine's checkpoint cut sits between a superstep's compute phase
// and its first exchange round, and a restore replays the saved frames
// of that superstep through the normal decode path. A channel therefore
// only persists what replay cannot rebuild: topology registered during
// an earlier superstep's compute (edge lists, mirror fan-out tables) and
// requester/value state written by compute itself.
// Everything the rounds produce — inboxes, asked lists, responses,
// staged outboxes — is regenerated by the replay, which calls Serialize
// into a discard buffer (draining staging exactly as the live round
// did) before feeding the saved frames to Deserialize.
//
// Integer tables (local indices, CSR offsets, -1 for no slot, packed
// addresses) are ser.VarintCodec slices: ckpt.SaveSlice writes them,
// ckpt.LoadSlice reads one whose length the job's shape fixes and
// ckpt.AppendSlice one whose length it checks against the bytes left.
// Restore runs under the engine's recover, so panics on blob/shape
// mismatches surface as worker errors, not crashes.
var (
	u32s  ser.VarintCodec[uint32]
	i32s  ser.VarintCodec[int32]
	addrs ser.VarintCodec[frag.Addr]
)

// SaveState implements engine.StatefulChannel. An adopted plan belongs
// to the fragment and is adopted again by the restoring job's setup, so
// only the flags and the receiver-side destination lists (which arrived
// in an earlier superstep's frames) are persisted; a private plan is
// saved as its AddAddr registrations and rebuilt. Source values and the
// receive side are epoch-stamped and rebuilt by replaying the cut
// superstep's frames.
func (c *ScatterCombine[M]) SaveState(buf *ser.Buffer) {
	buf.WriteVarint(int64(c.setEpoch))
	buf.WriteBool(c.handshaken)
	ckpt.SaveSlice(buf, u32s, c.reg.src)
	ckpt.SaveSlice(buf, addrs, c.reg.addr)
	for _, tab := range c.tab {
		ckpt.SaveSlice(buf, u32s, tab)
	}
}

// RestoreState implements engine.StatefulChannel.
func (c *ScatterCombine[M]) RestoreState(buf *ser.Buffer) {
	c.setEpoch = int32(buf.ReadVarint())
	c.handshaken = buf.ReadBool()
	c.reg = edgeReg{src: ckpt.AppendSlice(buf, u32s, nil), addr: ckpt.AppendSlice(buf, addrs, nil)}
	if len(c.reg.src) != len(c.reg.addr) || len(c.reg.addr) > 0 && c.plan != nil {
		panic("channel: checkpoint edge registrations do not match the job's ScatterCombine")
	}
	if len(c.reg.addr) > 0 {
		c.buildPrivatePlan()
	}
	if c.handshaken && c.plan == nil {
		panic("channel: checkpoint is past the ScatterCombine handshake but the job has no plan")
	}
	locals := uint32(len(c.in.val))
	for src := range c.tab {
		c.tab[src] = ckpt.AppendSlice(buf, u32s, nil)
		for _, li := range c.tab[src] {
			if li >= locals {
				panic(fmt.Sprintf("channel: checkpoint destination %d, worker hosts %d vertices", li, locals))
			}
		}
	}
	readDone(buf)
}

// SaveState implements engine.StatefulChannel: the topology, the vertex
// values and the pending propagation queue. An adopted plan belongs to
// the fragment, so one flag stands for it and the restore adopts the
// plan of the worker's fragment again; a registered topology is saved as
// its registrations and rebuilt, as ScatterCombine's is. The queued bits
// are derivable (a vertex is listed iff it is in the pending queue), no
// vertex is waiting to be woken at the cut, and the slots — send filter
// and staged updates — are empty there: AfterCompute has just cleared
// them and the previous superstep's rounds shipped what they staged.
func (c *Propagation[M]) SaveState(buf *ser.Buffer) {
	buf.WriteBool(c.adopted)
	ckpt.SaveSlice(buf, u32s, c.reg.src)
	ckpt.SaveSlice(buf, addrs, c.reg.addr)
	ckpt.SaveSlice(buf, i32s, c.regW)
	buf.WriteUvarint(uint64(c.locals))
	for li, st := range c.st[:c.locals] {
		buf.WriteBool(st&pvHas != 0)
		if st&pvHas != 0 {
			c.codec.Encode(buf, c.val[li])
		}
	}
	ckpt.SaveSlice(buf, u32s, c.queue[c.head:])
	buf.WriteVarint(int64(c.finalEpoch))
}

// RestoreState implements engine.StatefulChannel. The plan and the
// kernel state sized for it are in place before the engine replays the
// cut superstep's frames through Deserialize.
func (c *Propagation[M]) RestoreState(buf *ser.Buffer) {
	c.Reset()
	adopted := buf.ReadBool()
	c.reg = edgeReg{src: ckpt.AppendSlice(buf, u32s, nil), addr: ckpt.AppendSlice(buf, addrs, nil)}
	c.regW = ckpt.AppendSlice(buf, i32s, nil)
	weights := 0
	if c.transform != nil {
		weights = len(c.reg.addr)
	}
	if len(c.reg.src) != len(c.reg.addr) || len(c.regW) != weights || adopted && len(c.reg.addr) > 0 {
		panic("channel: checkpoint edge registrations do not match the job's Propagation")
	}
	switch {
	case adopted:
		if c.w.Frag() == nil {
			panic("channel: checkpoint adopted a fragment plan but the job has no fragments")
		}
		c.UseFragment(c.w.Frag())
	case len(c.reg.addr) > 0:
		c.buildPlan()
	}
	if n := buf.ReadUvarint(); n != uint64(c.locals) {
		panic(fmt.Sprintf("channel: checkpoint has %d vertex values, worker hosts %d", n, c.locals))
	}
	for li := range c.val[:c.locals] {
		if buf.ReadBool() {
			c.val[li], c.st[li] = c.codec.Decode(buf), pvHas
		}
	}
	c.queue = ckpt.AppendSlice(buf, u32s, c.queue)
	for _, li := range c.queue {
		if li >= c.locals {
			panic(fmt.Sprintf("channel: checkpoint queues local %d, worker hosts %d vertices", li, c.locals))
		}
		c.st[li] |= pvListed
	}
	c.finalEpoch = int32(buf.ReadVarint())
	c.propagatedThisRound = false
	readDone(buf)
}

// SaveState implements engine.StatefulChannel: sender-side tables built
// by prepare (grouped edges, per-destination hub lists) and
// the receiver-side fan-out tables, which arrive in handshake frames of
// the registration superstep — an earlier superstep whose frames the
// record does not carry. If the cut superstep IS the registration
// superstep, handshake is still true and replaying the saved frames
// rebuilds the fan-out tables again; saving them (then empty) is
// harmless.
func (c *Mirror[M]) SaveState(buf *ser.Buffer) {
	buf.WriteBool(c.prepared)
	buf.WriteVarint(int64(c.setEpoch))
	buf.WriteUvarint(uint64(len(c.fanout)))
	for _, tables := range c.fanout {
		buf.WriteUvarint(uint64(len(tables)))
		for _, lst := range tables {
			ckpt.SaveSlice(buf, i32s, lst)
		}
	}
	if !c.prepared {
		return
	}
	buf.WriteBool(c.handshake)
	ckpt.SaveSlice(buf, ser.VarintCodec[uint64]{}, c.srcStart)
	ckpt.SaveSlice(buf, addrs, c.bySrc)
	buf.WriteUvarint(uint64(len(c.dstHubs)))
	for _, hubs := range c.dstHubs {
		ckpt.SaveSlice(buf, u32s, hubs)
	}
	buf.WriteVarint(int64(c.stagedStep))
}

// RestoreState implements engine.StatefulChannel.
func (c *Mirror[M]) RestoreState(buf *ser.Buffer) {
	c.prepared = buf.ReadBool()
	c.setEpoch = int32(buf.ReadVarint())
	if n := readLen(buf); n != len(c.fanout) {
		panic(fmt.Sprintf("channel: checkpoint has %d fan-out tables, job has %d workers", n, len(c.fanout)))
	}
	for src := range c.fanout {
		tables := make([][]int32, readLen(buf))
		for i := range tables {
			tables[i] = ckpt.AppendSlice(buf, i32s, nil)
		}
		c.fanout[src] = tables
	}
	c.building = edgeReg{}
	if c.prepared {
		c.handshake = buf.ReadBool()
		c.srcStart = ckpt.AppendSlice(buf, ser.VarintCodec[uint64]{}, nil)
		c.bySrc = ckpt.AppendSlice(buf, addrs, nil)
		c.dstHubs = make([][]uint32, readLen(buf))
		for i := range c.dstHubs {
			c.dstHubs[i] = ckpt.AppendSlice(buf, u32s, nil)
		}
		c.stagedStep = int32(buf.ReadVarint())
		c.low = newOutbox[M](c.w)
	}
	readDone(buf)
}

// SaveState implements engine.StatefulChannel: the per-vertex request
// stamps (written by compute — Respond reads them next superstep; they
// hold positions in the request lists, so no table has to be rebuilt)
// and the deduplicated pending request lists the cut superstep's round 1
// sends. The dedup table only lives through one compute phase, and the
// response side (asked, resp, gotResp, respEpoch) is rebuilt entirely by
// replaying the two saved rounds.
func (c *RequestRespond[R]) SaveState(buf *ser.Buffer) {
	ckpt.SaveSlice(buf, addrs, c.at.val)
	ckpt.SaveSlice(buf, i32s, c.at.epoch)
	buf.WriteUvarint(uint64(len(c.pending)))
	for _, lst := range c.pending {
		ckpt.SaveSlice(buf, u32s, lst)
	}
	buf.WriteBool(c.sentReq)
}

// RestoreState implements engine.StatefulChannel.
func (c *RequestRespond[R]) RestoreState(buf *ser.Buffer) {
	ckpt.LoadSlice(buf, addrs, c.at.val)
	ckpt.LoadSlice(buf, i32s, c.at.epoch)
	if n := readLen(buf); n != len(c.pending) {
		panic(fmt.Sprintf("channel: checkpoint has %d pending lists, job has %d workers", n, len(c.pending)))
	}
	for o := range c.pending {
		c.pending[o] = ckpt.AppendSlice(buf, u32s, nil)
	}
	// the cut superstep's stamps are what the next compute indexes the
	// responses with: they must point into the lists just loaded
	for li, at := range c.at.val {
		if c.at.epoch[li] != int32(c.w.Superstep()) {
			continue
		}
		if o := at.Worker(); o >= len(c.pending) || int(at.Local()) >= len(c.pending[o]) {
			panic(fmt.Sprintf("channel: checkpoint request stamp of local %d points outside the pending lists", li))
		}
	}
	c.sentReq = buf.ReadBool()
	c.round = 0
	c.receivedReq = false
	readDone(buf)
}
