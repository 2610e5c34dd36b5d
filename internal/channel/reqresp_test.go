package channel

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/ser"
)

// Random request patterns with many repeats, silent vertices and values
// that change every superstep: each vertex must read exactly the value
// its destination held when the request was made — from a clean run,
// with checkpointing on, and restored from every cut (the positions the
// responses are indexed with travel in the checkpoint).
func TestRequestRespondRandomRequests(t *testing.T) {
	const n, steps = 60, 6
	part := partition.MustHash(n, 3)
	// ask[s][id]: whom id asks in superstep s, or -1; a third of the
	// requests go to five hot vertices
	rng := rand.New(rand.NewSource(11))
	ask := make([][]int, steps+1)
	for s := range ask {
		ask[s] = make([]int, n)
		for id := range ask[s] {
			switch rng.Intn(3) {
			case 0:
				ask[s][id] = rng.Intn(5)
			case 1:
				ask[s][id] = rng.Intn(n)
			default:
				ask[s][id] = -1
			}
		}
	}
	value := func(step int, id graph.VertexID) uint32 { return uint32(step)*1000 + id }
	run := func(hook *ckpt.Hook) []uint32 {
		trace := make([]uint32, n)
		_, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 20, Checkpoint: hook}, func(w *engine.Worker) {
			acc := make([]uint32, w.LocalCount())
			w.Checkpoint(
				func(buf *ser.Buffer) { ckpt.SaveSlice(buf, ser.Uint32Codec{}, acc) },
				func(buf *ser.Buffer) { ckpt.LoadSlice(buf, ser.Uint32Codec{}, acc) },
			)
			rr := NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 {
				return value(w.Superstep(), w.GlobalID(li))
			})
			w.Compute = func(li int) {
				id, step := w.GlobalID(li), w.Superstep()
				v, ok := rr.Respond()
				if asked := step > 1 && ask[step-1][id] >= 0; ok != asked {
					t.Errorf("step %d vertex %d: response %v, asked %v", step, id, ok, asked)
				} else if ok && v != value(step-1, graph.VertexID(ask[step-1][id])) {
					t.Errorf("step %d vertex %d asked %d: got %d", step, id, ask[step-1][id], v)
				}
				acc[li] = acc[li]*31 + v
				trace[id] = acc[li]
				if step > steps {
					w.VoteToHalt()
				} else if dst := ask[step][id]; dst >= 0 {
					rr.Request(w.Addr(graph.VertexID(dst)))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	want := run(nil)
	store := ckpt.NewDir(t.TempDir())
	if got := run(&ckpt.Hook{Store: keepAllCuts{store}, Job: "t", Interval: 1}); !slices.Equal(got, want) {
		t.Fatal("checkpointing changed the result")
	}
	for s := 1; s <= steps; s++ {
		if got := run(&ckpt.Hook{Store: store, Job: "t", Restore: s}); !slices.Equal(got, want) {
			t.Fatalf("restored from superstep %d: %v want %v", s, got, want)
		}
	}
}

// runRogueRR runs a 2-worker job over 8 vertices (worker 1 hosts 1, 3,
// 5, 7 as locals 0-3) in which worker 1's real RequestRespond[uint32]
// faces the scripted frames of worker 0. In supersteps 1 and 2 its
// locals 0 and 2 request vertex 0 and local 1 requests vertex 4, so
// worker 0 owes two responses in each conversation; frames[0] and [1]
// are superstep 1's request and respond round, frames[2] and [3]
// superstep 2's. It returns what the locals read in superstep 2.
func runRogueRR(frames [][]byte) (recv *RequestRespond[uint32], got [4]uint32, has [4]bool, err error) {
	asks := map[int]graph.VertexID{0: 0, 1: 4, 2: 0}
	_, err = engine.Run(engine.Config{Part: partition.MustHash(8, 2), MaxSupersteps: 20}, func(w *engine.Worker) {
		if w.WorkerID() == 0 {
			w.Register(&rogueSender{frames: frames, perStep: 2})
			w.Compute = func(li int) {
				if w.Superstep() > 2 {
					w.VoteToHalt()
				}
			}
			return
		}
		held := make([]uint32, w.LocalCount())
		recv = NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 { return held[li] })
		w.Compute = func(li int) {
			if w.Superstep() == 2 {
				got[li], has[li] = recv.Respond()
			}
			if w.Superstep() > 2 {
				w.VoteToHalt()
			} else if dst, ok := asks[li]; ok {
				recv.Request(w.Addr(dst))
			}
		}
	})
	return recv, got, has, err
}

func uvarints(vs ...uint64) []byte {
	var b ser.Buffer
	for _, v := range vs {
		b.WriteUvarint(v)
	}
	return b.Bytes()
}

// A request index outside the responder's vertex range or a response
// list of another length than the request list is used as an index
// outside the engine's recover (by the respond round's Serialize, by
// Respond in the next compute): both must already fail in Deserialize,
// as the engine's corrupt-frame worker error, and leave the process up.
func TestRequestRespondRejectsHostileFrames(t *testing.T) {
	cases := []struct {
		name   string
		frames [][]byte
		want   string
	}{
		{"request index == LocalCount", [][]byte{uvarints(1, 4)}, "request for local index 4"},
		{"request index beyond int32", [][]byte{uvarints(2, 0, 1<<40)}, "request for local index 1099511627776"},
		{"request list cut short", [][]byte{uvarints(3, 0, 1)}, "invalid uvarint"},
		{"request count huge", [][]byte{uvarints(1<<62, 0)}, "invalid uvarint"},
		{"one response too many", [][]byte{nil, slices.Concat(uvarints(3), u32le(1, 2, 3))}, "3 responses to 2 requests"},
		{"one response too few", [][]byte{nil, slices.Concat(uvarints(1), u32le(1))}, "1 responses to 2 requests"},
		{"response values cut short", [][]byte{nil, slices.Concat(uvarints(2), u32le(1))}, "underflow"},
		{"response values run long", [][]byte{nil, slices.Concat(uvarints(2), u32le(1, 2, 3))}, "4 bytes beyond the frame's 2 entries"},
		{"second conversation, bad index", [][]byte{nil, nil, uvarints(1, 9)}, "request for local index 9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := runRogueRR(tc.frames)
			if err == nil {
				t.Fatal("hostile frame was accepted")
			}
			for _, s := range []string{tc.want, "corrupt frame content for *channel.RequestRespond[", "from worker 0"} {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("error %q does not mention %q", err, s)
				}
			}
			if strings.Contains(err.Error(), "runtime error") {
				t.Errorf("frame reached an unchecked access: %v", err)
			}
		})
	}

	// the well-formed script: worker 0 asks for locals 3 and 0 and
	// answers worker 1's two requests in request order
	_, got, has, err := runRogueRR([][]byte{uvarints(2, 3, 0), slices.Concat(uvarints(2), u32le(70, 80))})
	if err != nil {
		t.Fatal(err)
	}
	if want := [4]uint32{70, 80, 70, 0}; got != want || has != [4]bool{true, true, true, false} {
		t.Errorf("responses %v %v, want %v", got, has, want)
	}
}
