package channel

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/ser"
)

func TestMirrorStarBroadcast(t *testing.T) {
	// hub 0 with 15 leaves across 4 workers; threshold 4 makes it a hub
	const n = 16
	got := make([]uint32, n)
	has := make([]bool, n)
	runJob(t, n, 4, func(w *engine.Worker) {
		mr := NewMirror[uint32](w, ser.Uint32Codec{}, Sum[uint32](), 4)
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				if id == 0 {
					for v := graph.VertexID(1); v < n; v++ {
						mr.AddAddr(w.Addr(v))
					}
				}
			case 2:
				if id == 0 {
					mr.SetMessage(77)
				}
			case 3:
				got[id], has[id] = mr.Message(li)
				w.VoteToHalt()
			}
		}
	})
	for k := 1; k < n; k++ {
		if !has[k] || got[k] != 77 {
			t.Errorf("leaf %d: got %d has=%v", k, got[k], has[k])
		}
	}
	if has[0] {
		t.Errorf("hub received its own broadcast")
	}
}

func TestMirrorSameSuperstepRegistrationAndSend(t *testing.T) {
	// SetMessage in the registration superstep must still deliver
	// (via the post-handshake extra round)
	const n = 12
	got := make([]uint32, n)
	runJob(t, n, 3, func(w *engine.Worker) {
		mr := NewMirror[uint32](w, ser.Uint32Codec{}, Sum[uint32](), 2)
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				mr.AddAddr(w.Addr((id + 1) % n))
				mr.AddAddr(w.Addr((id + 2) % n))
				mr.SetMessage(id)
			case 2:
				if v, ok := mr.Message(li); ok {
					got[id] = v
				}
				w.VoteToHalt()
			}
		}
	})
	for k := 0; k < n; k++ {
		want := uint32((k+n-1)%n + (k+n-2)%n)
		if got[k] != want {
			t.Errorf("vertex %d: got %d want %d", k, got[k], want)
		}
	}
}

func TestMirrorLowDegreeFallback(t *testing.T) {
	// all vertices below threshold: behaves like a combined broadcast
	const n = 8
	got := make([]uint32, n)
	runJob(t, n, 2, func(w *engine.Worker) {
		mr := NewMirror[uint32](w, ser.Uint32Codec{}, Sum[uint32](), 100)
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				mr.AddAddr(w.Addr((id + 1) % n))
			case 2:
				mr.SetMessage(10 + id)
			case 3:
				got[id], _ = mr.Message(li)
				w.VoteToHalt()
			}
		}
	})
	for k := 0; k < n; k++ {
		want := uint32(10 + (k+n-1)%n)
		if got[k] != want {
			t.Errorf("vertex %d: got %d want %d", k, got[k], want)
		}
	}
}

func TestMirrorReducesHubBytes(t *testing.T) {
	// a hub fanning out to every vertex: mirror sends one message per
	// worker; per-edge sends transmit one per neighbor
	const n = 64
	part := partition.MustHash(n, 4)
	run := func(threshold int) int64 {
		met, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 20}, func(w *engine.Worker) {
			mr := NewMirror[uint32](w, ser.Uint32Codec{}, Sum[uint32](), threshold)
			w.Compute = func(li int) {
				id := w.GlobalID(li)
				switch w.Superstep() {
				case 1:
					if id == 0 {
						for v := graph.VertexID(1); v < n; v++ {
							mr.AddAddr(w.Addr(v))
						}
					}
				case 2, 3, 4:
					if id == 0 {
						mr.SetMessage(id)
					}
				default:
					w.VoteToHalt()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return met.Comm.NetworkBytes
	}
	mirrored := run(4)     // hub qualifies
	perEdge := run(10_000) // nothing qualifies
	if mirrored >= perEdge {
		t.Errorf("mirror bytes %d >= per-edge bytes %d", mirrored, perEdge)
	}
}

func TestMirrorComposesWithOtherChannels(t *testing.T) {
	// the Pregel+ limitation the Mirror channel lifts: mirroring and
	// request-respond in one program
	const n = 12
	runJob(t, n, 3, func(w *engine.Worker) {
		vals := make([]uint32, w.LocalCount())
		mr := NewMirror[uint32](w, ser.Uint32Codec{}, Sum[uint32](), 2)
		rr := NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 { return vals[li] })
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				vals[li] = id * 2
				mr.AddAddr(w.Addr((id + 1) % n))
				mr.AddAddr(w.Addr((id + 2) % n))
				mr.SetMessage(1)
				rr.Request(w.Addr((id + 5) % n))
			case 2:
				if v, ok := mr.Message(li); !ok || v != 2 {
					t.Errorf("vertex %d: mirror sum %d ok=%v", id, v, ok)
				}
				if v, ok := rr.Respond(); !ok || v != uint32((id+5)%n)*2 {
					t.Errorf("vertex %d: respond %d ok=%v", id, v, ok)
				}
				w.VoteToHalt()
			}
		}
	})
}

func runRogueMirror(frames [][]byte) (*Mirror[uint32], error) {
	return runRogueInto(frames, func(w *engine.Worker) *Mirror[uint32] {
		return NewMirror[uint32](w, ser.Uint32Codec{}, Sum[uint32](), 2)
	}, nil)
}

// Mirror frames are checked before they are used: a count larger than
// the bytes left (a handshake frame of ten bytes once claimed 2^33 hubs
// and sized a 206 GB table from it, which no recover survives), a hub
// ordinal past the sender's handshake table, a local index the worker
// does not host and bytes past the frame's end all fail the job with a
// worker error naming the channel and the source.
func TestMirrorRejectsHostileFrames(t *testing.T) {
	// hub 0 of worker 0 fans out to locals 0 and 3 of worker 1
	hello := []byte{mirrorFrameHandshake, 1, 2, 0, 3}
	bcast := func(hubs uint32, rest ...[]byte) []byte {
		return slices.Concat(append([]byte{mirrorFrameBroadcast}, u32le(hubs)...), slices.Concat(rest...))
	}
	huge := slices.Concat([]byte{mirrorFrameHandshake}, uvarints(1<<33), []byte{1, 1, 0, 0})
	if len(huge) != 10 {
		t.Fatalf("huge handshake is %d bytes", len(huge))
	}
	cases := []struct {
		name   string
		frames [][]byte
		want   string
	}{
		{"handshake claims 2^33 hubs", [][]byte{huge}, "8589934592 entries claimed, 4 bytes remain"},
		{"handshake list longer than the frame", [][]byte{{mirrorFrameHandshake, 1, 9, 0}}, "9 entries claimed"},
		{"handshake index >= LocalCount", [][]byte{{mirrorFrameHandshake, 1, 1, 4}}, "hub 0 fans out to local 4"},
		{"handshake trailing byte", [][]byte{append(slices.Clone(hello), 0)}, "1 trailing bytes"},
		{"ordinal past the handshake table", [][]byte{hello, bcast(1, uvarints(1), u32le(5))}, "update 0 addresses local 1, receiver has 1"},
		{"hub before any handshake", [][]byte{bcast(1, uvarints(0), u32le(5))}, "update 0 addresses local 0, receiver has 0"},
		{"hub count beyond the bytes", [][]byte{hello, bcast(1 << 30)}, "1073741824 entries claimed"},
		{"low-degree index >= LocalCount", [][]byte{bcast(0, uvarints(2, 1, 4), u32le(5, 6))}, "update 1 addresses local 4"},
		{"low-degree values one short", [][]byte{bcast(0, uvarints(2, 1, 2), u32le(5))}, "underflow"},
		{"trailing bytes", [][]byte{hello, bcast(1, uvarints(0), u32le(5), uvarints(1, 2), u32le(7), []byte{0})}, "1 bytes beyond the values of 1 updates"},
		{"unknown tag", [][]byte{{7}}, "unknown frame tag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runRogueMirror(tc.frames)
			if err == nil {
				t.Fatal("hostile frame was accepted")
			}
			for _, s := range []string{tc.want, "Mirror", "from worker 0"} {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("error %q does not mention %q", err, s)
				}
			}
			if strings.Contains(err.Error(), "runtime error") {
				t.Errorf("frame reached an unchecked access: %v", err)
			}
		})
	}

	// the well-formed script fans the hub out along the handshake table
	// and merges the low-degree section on top
	recv, err := runRogueMirror([][]byte{hello, bcast(1, uvarints(0), u32le(5), uvarints(2, 2, 3), u32le(7, 1))})
	if err != nil {
		t.Fatal(err)
	}
	for li, want := range []uint32{5, 0, 7, 6} {
		if got, _ := recv.in.get(li, 2); got != want {
			t.Errorf("local %d holds %d want %d", li, got, want)
		}
	}
}
