package channel

import (
	"fmt"
	"slices"

	"repro/internal/bsp"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/ser"
)

// RequestRespond is the optimized channel for the request-respond
// conversation pattern (paper §IV-C2, Fig. 6): in one superstep a vertex
// requests an attribute of any other vertex, and in the next superstep
// the value is available. Two optimizations from the paper are
// implemented:
//
//   - requests to the same destination are deduplicated per worker,
//     which removes the load imbalance caused by high-degree vertices in
//     the respond phase. Dedup happens as the requests are made, in a
//     dense table with one slot per remote vertex: the first request for
//     a vertex appends it to its owner's request list and records the
//     position, a repeat finds the position. Nothing is sorted and
//     nothing is searched;
//   - the responder replies with a bare value list in exactly the order
//     of the request list, omitting the vertex IDs Pregel+ retransmits —
//     the "particular trick" of §V-B2 behind the constant 33% reply-size
//     reduction. A requester remembers (owner, position) per vertex, so
//     Respond is an index into that list.
//
// The conversation takes two exchange rounds inside one superstep:
// requests travel in round 1, responses in round 2. Frames from a socket
// are untrusted: a requested index outside the responder's vertex range
// or a response list of another length than the request list fails the
// job in Deserialize, before either can be used as an index.
type RequestRespond[R any] struct {
	w       *engine.Worker
	codec   ser.Codec[R]
	respond func(li int) R

	// requester side. Request dedups into staging during compute;
	// AfterCompute makes it pending, the lists round 1 sends and round 2's
	// responses are checked against, while resp keeps the previous
	// superstep's values readable through compute. slot and staging form
	// a sparse set: local index l of worker o is staged iff
	// staging[o][slot[o][l]] == l, so slots are never cleared or stamped.
	slot      [][]uint32             // per owner worker: remote local index -> position in staging
	staging   [][]uint32             // per owner worker: unique requested local indices, first-touch order
	pending   [][]uint32             // per owner worker: the request lists of this superstep's rounds
	at        bsp.Stamped[frag.Addr] // per local vertex: (owner, position) of what it asked for
	resp      [][]R                  // per owner worker: values aligned with the request list
	gotResp   []bool
	respEpoch int32 // superstep whose responses are stored

	// responder side: request lists received in round 1, per source
	// worker, as local indices (the wire ships dense local indices)
	asked [][]int32

	round       int
	sentReq     bool
	receivedReq bool
}

// NewRequestRespond creates and registers a RequestRespond channel.
// respond produces the response value from the local index of a
// requested vertex (paper: function<RespT(VertexT)> — the closure
// captures the algorithm's vertex state).
func NewRequestRespond[R any](w *engine.Worker, codec ser.Codec[R], respond func(li int) R) *RequestRespond[R] {
	c := &RequestRespond[R]{w: w, codec: codec, respond: respond}
	w.Register(c)
	return c
}

// Request asks for the attribute of the vertex at packed address a on
// behalf of the vertex currently computing (paper: add_request(dst) is
// Request(w.Addr(dst))). The response is available via Respond in the
// next superstep. A vertex may request at most one destination per
// superstep (as in the paper's API, where the respond value is keyed by
// the requester).
func (c *RequestRespond[R]) Request(a frag.Addr) {
	o, l := a.Worker(), a.Local()
	lst := c.staging[o]
	pos := c.slot[o][l]
	if int(pos) >= len(lst) || lst[pos] != l {
		pos = uint32(len(lst))
		c.slot[o][l] = pos
		c.staging[o] = append(lst, l)
	}
	c.at.Set(c.w.CurrentLocal(), frag.Pack(o, pos), int32(c.w.Superstep()))
}

// Respond returns the value for the destination the current vertex
// requested in the previous superstep.
func (c *RequestRespond[R]) Respond() (R, bool) {
	prev := int32(c.w.Superstep() - 1)
	at, ok := c.at.Get(c.w.CurrentLocal(), prev)
	if !ok || c.respEpoch != prev || !c.gotResp[at.Worker()] {
		var zero R
		return zero, false
	}
	return c.resp[at.Worker()][at.Local()], true
}

// Initialize implements engine.Channel.
func (c *RequestRespond[R]) Initialize() {
	m := c.w.NumWorkers()
	c.slot = make([][]uint32, m)
	for o := range c.slot {
		c.slot[o] = make([]uint32, c.w.Part().LocalCount(o))
	}
	c.staging = make([][]uint32, m)
	c.pending = make([][]uint32, m)
	c.at = bsp.NewStamped[frag.Addr](c.w.LocalCount())
	c.resp = make([][]R, m)
	c.gotResp = make([]bool, m)
	c.asked = make([][]int32, m)
	c.respEpoch = -1
}

// AfterCompute implements engine.Channel: retire the previous
// superstep's request/response state (the vertices consumed it during
// compute) and hand this superstep's request lists to the rounds.
func (c *RequestRespond[R]) AfterCompute() {
	c.round = 0
	c.sentReq = false
	c.receivedReq = false
	for o := range c.staging {
		c.resp[o] = c.resp[o][:0]
		c.gotResp[o] = false
		c.asked[o] = c.asked[o][:0]
		// swap generations, reusing backing arrays
		c.pending[o], c.staging[o] = c.staging[o], c.pending[o][:0]
		if len(c.pending[o]) > 0 {
			c.sentReq = true
		}
	}
}

// Serialize implements engine.Channel.
func (c *RequestRespond[R]) Serialize(dst int, buf *ser.Buffer) {
	switch c.round {
	case 0:
		// request phase: send the deduplicated list as local indices on
		// the responder
		lst := c.pending[dst]
		if len(lst) == 0 {
			return
		}
		buf.WriteUvarint(uint64(len(lst)))
		for _, l := range lst {
			buf.WriteUvarint(uint64(l))
		}
	case 1:
		// respond phase: bare values, in the order of the request list
		lis := c.asked[dst]
		if len(lis) == 0 {
			return
		}
		buf.WriteUvarint(uint64(len(lis)))
		for _, li := range lis {
			c.codec.Encode(buf, c.respond(int(li)))
		}
	}
}

// Deserialize implements engine.Channel. What it accepts is indexed
// with later, outside the engine's recover — a requested index by the
// respond phase's Serialize, a response position by Respond during the
// next compute — so both are checked here.
func (c *RequestRespond[R]) Deserialize(src int, buf *ser.Buffer) {
	n := buf.ReadUvarint()
	switch c.round {
	case 0:
		locals := uint64(c.w.LocalCount())
		lis := c.asked[src][:0]
		for i := uint64(0); i < n; i++ {
			li := buf.ReadUvarint()
			if li >= locals {
				panic(fmt.Sprintf("channel: RequestRespond: request for local index %d, worker hosts %d vertices", li, locals))
			}
			lis = append(lis, int32(li))
		}
		c.asked[src] = lis
		c.receivedReq = true
	case 1:
		want := len(c.pending[src])
		if n != uint64(want) {
			panic(fmt.Sprintf("channel: RequestRespond: %d responses to %d requests", n, want))
		}
		c.resp[src] = slices.Grow(c.resp[src][:0], want)[:want]
		ser.DecodeSlice(buf, c.codec, c.resp[src])
		c.gotResp[src] = true
	}
	if rest := buf.Remaining(); rest != 0 {
		panic(fmt.Sprintf("channel: RequestRespond: %d bytes beyond the frame's %d entries", rest, n))
	}
}

// Again implements engine.Channel: ask for the respond round if this
// worker sent or received any request.
func (c *RequestRespond[R]) Again() bool {
	c.round++
	if c.round == 1 {
		if c.sentReq || c.receivedReq {
			c.respEpoch = int32(c.w.Superstep())
			return true
		}
	}
	return false
}
