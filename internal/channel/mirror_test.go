package channel

import (
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
						mr.AddEdge(v)
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
				mr.AddEdge((id + 1) % n)
				mr.AddEdge((id + 2) % n)
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
				mr.AddEdge((id + 1) % n)
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
							mr.AddEdge(v)
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
				mr.AddEdge((id + 1) % n)
				mr.AddEdge((id + 2) % n)
				mr.SetMessage(1)
				rr.AddRequest((id + 5) % n)
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
