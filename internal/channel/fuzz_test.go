package channel

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/ser"
)

// script packs frames into one fuzz input, each behind a length byte;
// cutScript is its inverse on arbitrary bytes, stopping at four frames.
func script(frames ...[]byte) []byte {
	var out []byte
	for _, fr := range frames {
		out = append(append(out, byte(len(fr))), fr...)
	}
	return out
}

func cutScript(data []byte) [][]byte {
	var frames [][]byte
	for len(data) > 0 && len(frames) < 4 {
		n := min(int(data[0]), len(data)-1)
		frames = append(frames, data[1:1+n])
		data = data[1+n:]
	}
	return frames
}

// FuzzScatterFrames pins the wire-surface contract of the ScatterCombine
// receiver: whatever frame sequence a peer sends (the input is cut into
// up to four length-prefixed frames, one per superstep), the job either
// fails with a worker error or every accepted destination list is
// strictly ascending and inside the worker's vertex range and values
// landed only on listed destinations — never an out-of-range access.
func FuzzScatterFrames(f *testing.F) {
	hello := slices.Concat([]byte{scFrameTable, 2, 0, 2}, u32le(10, 20))
	f.Add(script(hello, slices.Concat([]byte{0}, u32le(3, 4)), slices.Concat([]byte{scFramePartial, 0b10}, u32le(9))))
	f.Add(script(hello, hello))
	f.Add(script(slices.Concat([]byte{0}, u32le(1, 2))))
	f.Add(script(slices.Concat([]byte{scFrameTable, 1, 4}, u32le(1))))
	f.Add(script(slices.Concat([]byte{scFrameTable | scFramePartial, 3, 1, 1, 1, 0b101}, u32le(1, 2))))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := cutScript(data)
		recv, err := runRogue(frames)
		if err != nil {
			if strings.Contains(err.Error(), "runtime error") {
				t.Fatalf("frame reached an unchecked access: %v", err)
			}
			return
		}
		listed := make([]bool, len(recv.in.val))
		for src, tab := range recv.tab {
			if src != 0 && tab != nil {
				t.Fatalf("destination list from silent worker %d", src)
			}
			for k, li := range tab {
				if int(li) >= len(listed) || k > 0 && li <= tab[k-1] {
					t.Fatalf("accepted destination list %v", tab)
				}
				listed[li] = true
			}
		}
		for li, e := range recv.in.epoch {
			if e >= 0 && !listed[li] { // stamped by a frame
				t.Fatalf("value delivered to unlisted local %d", li)
			}
		}
	})
}

// FuzzRequestRespondFrames pins the same contract for the
// RequestRespond receiver: whatever a peer sends in the request and
// respond rounds of two conversations (the input is cut into up to four
// length-prefixed frames), the job either fails with a worker error or
// every response a vertex reads is one the peer sent for its request —
// never an index out of range, in Deserialize or after it.
func FuzzRequestRespondFrames(f *testing.F) {
	f.Add(script(uvarints(2, 3, 0), slices.Concat(uvarints(2), u32le(70, 80))))
	f.Add(script(uvarints(1, 4)))
	f.Add(script(nil, slices.Concat(uvarints(3), u32le(1, 2, 3))))
	f.Add(script(nil, uvarints(2), uvarints(1, 9), slices.Concat(uvarints(2), u32le(1, 2))))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := cutScript(data)
		_, got, has, err := runRogueRR(frames)
		if err != nil {
			if strings.Contains(err.Error(), "runtime error") {
				t.Fatalf("frame reached an unchecked access: %v", err)
			}
			return
		}
		// an accepted first conversation answered both requests or none
		if has != [4]bool{} && has != [4]bool{true, true, true, false} {
			t.Fatalf("responses reached %v", has)
		}
		if has[0] && (got[0] != got[2] || len(frames) < 2 || !slices.Equal(frames[1], slices.Concat(uvarints(2), u32le(got[0], got[1])))) {
			t.Fatalf("read %v from response frame %v", got, frames)
		}
	})
}

// realPropFrames returns the frames worker 0 sent worker 1, round by
// round, in a real propagation over the 8-vertex path (every hop crosses
// under hash placement, 4 vertices a worker as in runRoguePropagation).
func realPropFrames[M cmp.Ordered](f *testing.F, codec ser.Codec[M], transform func(M, int32) M, seed func(id graph.VertexID) (M, bool)) [][]byte {
	var tap *propTap[M]
	_, err := engine.Run(engine.Config{Part: partition.MustHash(8, 2), MaxSupersteps: 5}, func(w *engine.Worker) {
		c := &Propagation[M]{w: w, codec: codec, combine: Min[M](), transform: transform}
		if t := newPropTap(c); w.WorkerID() == 0 {
			tap = t
		}
		w.Compute = func(li int) {
			if id := w.GlobalID(li); w.Superstep() == 1 {
				for _, v := range []graph.VertexID{id - 1, id + 1} {
					if v < 8 { // id-1 wraps below 0
						c.AddWeightedAddr(w.Addr(v), int32(id+v))
					}
				}
				if m, ok := seed(id); ok {
					c.SetValue(m)
				}
			}
			w.VoteToHalt()
		}
	})
	if err != nil {
		f.Fatal(err)
	}
	var frames [][]byte
	for r := 0; tap.gotVal[[2]int{1, r}] != nil; r++ {
		if sent := tap.frames[[2]int{1, r}]; sent != nil && len(sent[1]) > 0 {
			frames = append(frames, sent[1])
		}
	}
	return frames
}

// FuzzPropagationFrames pins the wire-surface contract of the
// Propagation receiver: whatever frame sequence a peer sends (the input
// is cut into up to four length-prefixed frames, one per superstep), the
// job either fails with a worker error or every vertex holds the minimum
// of its own seed and the values the frames addressed to it — never an
// out-of-range access, never a value from a rejected frame's prefix.
// Seeded with the frames of real WCC (fixed-width values) and SSSP
// (varint values) propagations.
func FuzzPropagationFrames(f *testing.F) {
	wcc := realPropFrames(f, ser.Uint32Codec{}, nil, func(id graph.VertexID) (uint32, bool) { return id, true })
	sssp := realPropFrames(f, ser.Int64Codec{}, func(d int64, w int32) int64 { return d + int64(w) },
		func(id graph.VertexID) (int64, bool) { return 0, id == 0 })
	if len(wcc) < 4 || len(sssp) < 4 {
		f.Fatalf("real propagations sent %d and %d frames", len(wcc), len(sssp))
	}
	f.Add(script(wcc[:4]...))
	f.Add(script(sssp[:4]...))
	f.Add(script(slices.Concat(uvarints(2, 0, 2), u32le(7, 8)), slices.Concat(uvarints(1, 3), u32le(5))))
	f.Add(script(slices.Concat(uvarints(200, 0, 2), u32le(7, 8))))
	f.Add(script(slices.Concat(uvarints(1, 4), u32le(1))))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := cutScript(data)
		recv, err := runRoguePropagation(frames, false)
		if err != nil {
			if strings.Contains(err.Error(), "runtime error") {
				t.Fatalf("frame reached an unchecked access: %v", err)
			}
			return
		}
		want := []uint32{100, 101, 102, 103}
		for _, fr := range frames {
			if len(fr) == 0 {
				continue // the engine drops an empty frame
			}
			for _, p := range decodePropFrame(t, ser.Uint32Codec{}, fr) {
				if int(p.li) >= len(want) {
					t.Fatalf("accepted an update for local %d", p.li)
				}
				want[p.li] = min(want[p.li], p.v)
			}
		}
		for li, v := range want {
			if got, _ := recv.RawValue(li); got != v {
				t.Fatalf("local %d holds %d, the frames say %d", li, got, v)
			}
		}
	})
}

// FuzzUpdateFrames pins the wire-surface contract of the update-frame
// receivers — DirectMessage, CombinedMessage and Mirror, each of which
// gets the same frames (the input is cut into up to four length-prefixed
// frames, one per superstep): the job either fails with a worker error
// or every vertex reads exactly what the frames addressed to it — in
// frame order from DirectMessage, as a sum from CombinedMessage — and
// every Mirror fan-out entry is a vertex the worker hosts. A runtime
// error is a finding.
func FuzzUpdateFrames(f *testing.F) {
	hello := []byte{mirrorFrameHandshake, 1, 2, 0, 3}
	f.Add(script(slices.Concat(uvarints(3, 1, 0, 1), u32le(7, 8, 9)), slices.Concat(uvarints(1, 3), u32le(5))))
	f.Add(script(hello, slices.Concat([]byte{mirrorFrameBroadcast}, u32le(1), uvarints(0), u32le(5), uvarints(2, 2, 3), u32le(7, 1))))
	f.Add(script(slices.Concat(uvarints(2, 0, 4), u32le(7, 8))))
	f.Add(script(slices.Concat([]byte{mirrorFrameHandshake}, uvarints(1<<33), []byte{1, 1, 0, 0})))
	f.Add(script(slices.Concat([]byte{mirrorFrameBroadcast}, u32le(0), uvarints(1, 2), u32le(7), []byte{0})))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := cutScript(data)
		finding := func(err error) bool {
			if err != nil && strings.Contains(err.Error(), "runtime error") {
				t.Fatalf("frame reached an unchecked access: %v", err)
			}
			return err != nil
		}
		// what superstep s+2 must read: frames[s] decoded (observe runs
		// in the job's goroutines, so a mismatch is an Errorf)
		want := func(s int) (msgs [4][]uint32, sum [4]uint32) {
			if s >= 0 && s < len(frames) {
				for _, p := range decodePropFrame(t, ser.Uint32Codec{}, frames[s]) {
					msgs[p.li] = append(msgs[p.li], p.v)
					sum[p.li] += p.v
				}
			}
			return msgs, sum
		}

		_, err := runRogueInto(frames, func(w *engine.Worker) *DirectMessage[uint32] {
			return NewDirectMessage[uint32](w, ser.Uint32Codec{})
		}, func(w *engine.Worker, c *DirectMessage[uint32], li int) {
			if msgs, _ := want(w.Superstep() - 2); !slices.Equal(c.Messages(li), msgs[li]) {
				t.Errorf("superstep %d: local %d read %v, the frames say %v", w.Superstep(), li, c.Messages(li), msgs[li])
			}
		})
		if finding(err) {
			return
		}
		_, err = runRogueInto(frames, func(w *engine.Worker) *CombinedMessage[uint32] {
			return NewCombinedMessage[uint32](w, ser.Uint32Codec{}, Sum[uint32]())
		}, func(w *engine.Worker, c *CombinedMessage[uint32], li int) {
			msgs, sum := want(w.Superstep() - 2)
			if got, has := c.Message(li); has != (msgs[li] != nil) || got != sum[li] {
				t.Errorf("superstep %d: local %d read %d (%v), the frames say %v", w.Superstep(), li, got, has, msgs[li])
			}
		})
		if finding(err) {
			return
		}
		recv, err := runRogueInto(frames, func(w *engine.Worker) *Mirror[uint32] {
			return NewMirror[uint32](w, ser.Uint32Codec{}, Sum[uint32](), 2)
		}, nil)
		if finding(err) {
			return
		}
		for _, tables := range recv.fanout {
			for _, lst := range tables {
				for _, li := range lst {
					if li >= 4 {
						t.Fatalf("accepted fan-out table %v", tables)
					}
				}
			}
		}
	})
}
