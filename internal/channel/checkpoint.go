package channel

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/ser"
)

// The optimized channels carry cross-superstep state and participate in
// checkpoints; the standard channels (DirectMessage, CombinedMessage,
// Aggregator) hold nothing between supersteps but what round 1's
// serialized buffers carry and the restored rounds deliver, and stay
// stateless.
var (
	_ engine.StatefulChannel = (*ScatterCombine[int])(nil)
	_ engine.StatefulChannel = (*Propagation[int])(nil)
	_ engine.StatefulChannel = (*Mirror[int])(nil)
	_ engine.StatefulChannel = (*RequestRespond[int])(nil)
)

// Checkpoint state for the optimized channels (engine.StatefulChannel).
//
// The engine's checkpoint cut sits after round 1 of a superstep has
// serialized, before its flush, and the record carries the buffers that
// round wrote. Everything compute staged for sending — messages, source
// values, request lists as they go on the wire — is in those buffers,
// and everything the rounds produce — inboxes, asked lists, responses —
// is produced again when a restore resumes the superstep at round 1's
// flush over the live fabric. A channel therefore persists what the
// rounds read and the buffers do not hold: topology registered during
// an earlier superstep's compute (edge lists, mirror fan-out tables),
// requester state written by compute itself, and what a later round of
// the cut superstep sends.
//
// Integer tables (local indices, CSR offsets, -1 for no slot, packed
// addresses) are ser.VarintCodec slices: ckpt.SaveSlice writes them,
// ckpt.LoadSlice reads one whose length the job's shape fixes and
// ckpt.AppendSlice one whose length it checks against the bytes left.
// Restore runs under the driver's recover, so panics on blob/shape
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
// saved as its AddAddr registrations and rebuilt. The channel sends in
// round 1 only, so the source values it combined are in the record's
// buffers, and the receive side is epoch-stamped and refilled by the
// restored round.
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

// SaveState implements engine.StatefulChannel: the topology and the
// value of every target. An adopted plan belongs to the fragment, so one
// flag stands for it and the restore adopts the plan of the worker's
// fragment again; a registered topology is saved as its registrations
// and rebuilt, as ScatterCombine's is. Round 1's Serialize has run the
// local traversal to quiescence and shipped what it staged: the queue is
// empty, the vertices it woke are in the core's active set, and a slot
// holds the value it shipped — the send filter of the later rounds,
// which would ship a superset of pairs without it. Each group of eight
// targets is a presence byte and the values of those present.
func (c *Propagation[M]) SaveState(buf *ser.Buffer) {
	buf.WriteBool(c.adopted)
	ckpt.SaveSlice(buf, u32s, c.reg.src)
	ckpt.SaveSlice(buf, addrs, c.reg.addr)
	ckpt.SaveSlice(buf, i32s, c.regW)
	buf.WriteUvarint(uint64(len(c.st)))
	presence := 0
	for t, st := range c.st {
		if t&7 == 0 {
			presence = buf.Len()
			buf.WriteUint8(0)
		}
		if st&pvHas != 0 {
			buf.Bytes()[presence] |= 1 << (t & 7)
			c.codec.Encode(buf, c.val[t])
		}
	}
	buf.WriteVarint(int64(c.finalEpoch))
}

// RestoreState implements engine.StatefulChannel. The plan and the
// kernel state sized for it are in place before the restored round
// delivers its frames.
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
	if n := buf.ReadUvarint(); n != uint64(len(c.st)) {
		panic(fmt.Sprintf("channel: checkpoint has %d propagation targets, worker has %d", n, len(c.st)))
	}
	var presence uint8
	for t := range c.st {
		if t&7 == 0 {
			presence = buf.ReadUint8()
		}
		if presence>>(t&7)&1 != 0 {
			c.val[t], c.st[t] = c.codec.Decode(buf), pvHas
		}
	}
	c.finalEpoch = int32(buf.ReadVarint())
	readDone(buf)
}

// SaveState implements engine.StatefulChannel: sender-side tables built
// by prepare (grouped edges, per-destination hub lists) and the
// receiver-side fan-out tables, which arrive in handshake frames of the
// registration superstep. If the cut superstep IS the registration
// superstep, handshake is still true: round 1 carries the handshake, the
// restored round rebuilds the fan-out tables (saved empty), and round 2
// broadcasts the values compute set, which are saved with it.
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
	if c.handshake {
		ckpt.SaveSlice(buf, c.codec, c.srcVal.val)
		ckpt.SaveSlice(buf, i32s, c.srcVal.epoch)
	}
}

// RestoreState implements engine.StatefulChannel. The tables are
// checked against the job's shape before anything indexes with them:
// the restored superstep's next Serialize runs outside any recover.
func (c *Mirror[M]) RestoreState(buf *ser.Buffer) {
	locals := c.w.LocalCount()
	c.prepared = buf.ReadBool()
	c.setEpoch = int32(buf.ReadVarint())
	if n := buf.ReadUvarint(); n != uint64(len(c.fanout)) {
		panic(fmt.Sprintf("channel: checkpoint has %d fan-out tables, job has %d workers", n, len(c.fanout)))
	}
	for src := range c.fanout {
		tables := make([][]int32, buf.ReadCount(math.MaxInt))
		for i := range tables {
			tables[i] = ckpt.AppendSlice(buf, i32s, nil)
			for _, li := range tables[i] {
				if li < 0 || int(li) >= locals {
					panic(fmt.Sprintf("channel: checkpoint fans hub %d of worker %d out to local %d, worker hosts %d vertices", i, src, li, locals))
				}
			}
		}
		c.fanout[src] = tables
	}
	c.building = edgeReg{}
	if c.prepared {
		c.handshake = buf.ReadBool()
		c.srcStart = ckpt.AppendSlice(buf, ser.VarintCodec[uint64]{}, nil)
		c.bySrc = ckpt.AppendSlice(buf, addrs, nil)
		if start := c.srcStart; len(start) != locals+1 || start[0] != 0 || start[locals] != uint64(len(c.bySrc)) || !slices.IsSorted(start) {
			panic(fmt.Sprintf("channel: checkpoint edge offsets are no CSR of %d edges over %d vertices", len(c.bySrc), locals))
		}
		for i, a := range c.bySrc {
			if o := a.Worker(); o >= len(c.fanout) || int(a.Local()) >= c.w.Part().LocalCount(o) {
				panic(fmt.Sprintf("channel: checkpoint edge %d addresses local %d of worker %d outside the partition", i, a.Local(), o))
			}
		}
		if n := buf.ReadUvarint(); n != uint64(len(c.fanout)) {
			panic(fmt.Sprintf("channel: checkpoint has %d hub lists, job has %d workers", n, len(c.fanout)))
		}
		c.dstHubs = make([][]uint32, len(c.fanout))
		for d := range c.dstHubs {
			c.dstHubs[d] = ckpt.AppendSlice(buf, u32s, nil)
			for k, li := range c.dstHubs[d] {
				if int(li) >= locals || k > 0 && li <= c.dstHubs[d][k-1] {
					panic(fmt.Sprintf("channel: checkpoint hub list for worker %d is not ascending below %d vertices at entry %d", d, locals, k))
				}
			}
		}
		c.stagedStep = int32(buf.ReadVarint())
		c.low = newOutbox[M](c.w)
		if c.handshake {
			ckpt.LoadSlice(buf, c.codec, c.srcVal.val)
			ckpt.LoadSlice(buf, i32s, c.srcVal.epoch)
		}
	}
	readDone(buf)
}

// SaveState implements engine.StatefulChannel: the per-vertex request
// stamps (written by compute — Respond reads them next superstep; they
// hold positions in the request lists, so no table has to be rebuilt)
// and the deduplicated pending request lists, which round 1 sent and
// round 2's responses are checked against. The dedup table only lives
// through one compute phase, and the response side (asked, resp,
// gotResp, respEpoch) is filled again by the restored rounds.
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
	if n := buf.ReadUvarint(); n != uint64(len(c.pending)) {
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
