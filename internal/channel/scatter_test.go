package channel

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/ser"
)

// An adopted fragment plan and a plan built privately from AddAddr over
// the same edges must deliver bit-identical combined values (float sums
// depend on the combine order) in dense supersteps, in supersteps where
// only some sources scatter, and after a silent superstep — and agree
// with the sum computed straight off the graph.
func TestScatterCombineFragmentPlanMatchesRegistration(t *testing.T) {
	g := graph.RMAT(9, 6, 5, graph.RMATOptions{NoSelfLoops: true})
	n := g.NumVertices()
	part := partition.MustHash(n, 3)
	fs := frag.Build(g, part)
	rev := g.Reverse()

	value := func(step int, id graph.VertexID) (float64, bool) {
		switch step {
		case 1, 5: // every vertex scatters
			return 1 / float64(int(id)+step), true
		case 2: // a third of them
			return float64(id) * 0.1, id%3 == 0
		case 4: // exactly one
			return 7, id == 1
		}
		return 0, false // step 3: nobody
	}
	const steps = 5
	got := [2][steps + 2][]float64{}
	has := [2][steps + 2][]bool{}
	for v := range got {
		for s := range got[v] {
			got[v][s] = make([]float64, n)
			has[v][s] = make([]bool, n)
		}
	}
	_, err := engine.Run(engine.Config{Frags: fs, MaxSupersteps: 20}, func(w *engine.Worker) {
		f := w.Frag()
		adopted := NewScatterCombine[float64](w, ser.Float64Codec{}, Sum[float64]())
		adopted.UseFragment(f)
		private := NewScatterCombine[float64](w, ser.Float64Codec{}, Sum[float64]())
		w.Compute = func(li int) {
			id, step := w.GlobalID(li), w.Superstep()
			if step == 1 {
				for _, a := range f.Neighbors(li) {
					private.AddAddr(a)
				}
			}
			for v, sc := range []*ScatterCombine[float64]{adopted, private} {
				got[v][step][id], has[v][step][id] = sc.Message(li)
			}
			if step > steps {
				w.VoteToHalt()
				return
			}
			if m, ok := value(step, id); ok {
				adopted.SetMessage(m)
				private.SetMessage(m)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= steps; step++ {
		for id := 0; id < n; id++ {
			want, wantHas := 0.0, false
			for _, u := range rev.Neighbors(graph.VertexID(id)) {
				if m, ok := value(step, u); ok {
					want, wantHas = want+m, true
				}
			}
			a, p := got[0][step+1][id], got[1][step+1][id]
			if has[0][step+1][id] != wantHas || has[1][step+1][id] != wantHas {
				t.Fatalf("step %d vertex %d: delivery adopted=%v private=%v want %v", step, id, has[0][step+1][id], has[1][step+1][id], wantHas)
			}
			if math.Float64bits(a) != math.Float64bits(p) {
				t.Fatalf("step %d vertex %d: adopted plan %v, private plan %v", step, id, a, p)
			}
			if math.Abs(a-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("step %d vertex %d: got %v want %v", step, id, a, want)
			}
		}
	}
}

// rogueSender stands in for worker 0's channel opposite a real one on
// worker 1 and emits scripted frames: frames[r] goes to worker 1 in the
// job's r-th exchange round, every superstep having perStep rounds (a
// ScatterCombine superstep one, a RequestRespond conversation two).
type rogueSender struct {
	frames  [][]byte
	perStep int
	round   int
}

func (r *rogueSender) Initialize()   {}
func (r *rogueSender) AfterCompute() {}
func (r *rogueSender) Serialize(dst int, buf *ser.Buffer) {
	if dst == 1 && r.round < len(r.frames) {
		for _, b := range r.frames[r.round] {
			buf.WriteUint8(b)
		}
	}
}
func (r *rogueSender) Deserialize(src int, buf *ser.Buffer) {}
func (r *rogueSender) Again() bool {
	r.round++
	return r.round%r.perStep != 0
}

// runRogue runs a 2-worker job over 8 vertices (4 per worker) in which
// worker 1's real ScatterCombine[uint32] receives the scripted frames,
// and returns the job error and the receiving channel.
func runRogue(frames [][]byte) (*ScatterCombine[uint32], error) {
	var recv *ScatterCombine[uint32]
	_, err := engine.Run(engine.Config{Part: partition.MustHash(8, 2), MaxSupersteps: 20}, func(w *engine.Worker) {
		if w.WorkerID() == 0 {
			w.Register(&rogueSender{frames: frames, perStep: 1})
		} else {
			recv = NewScatterCombine[uint32](w, ser.Uint32Codec{}, Sum[uint32]())
		}
		w.Compute = func(li int) {
			if w.Superstep() > len(frames) {
				w.VoteToHalt()
			}
		}
	})
	return recv, err
}

func u32le(vs ...uint32) []byte {
	var b ser.Buffer
	for _, v := range vs {
		b.WriteUint32(v)
	}
	return b.Bytes()
}

// Frames that disagree with the handshaken plan fail the job with a
// worker error naming the channel and the source; nothing is stored out
// of range and nothing is misdelivered.
func TestScatterCombineRejectsHostileFrames(t *testing.T) {
	// destinations {0, 2} of worker 1, values 10 and 20
	table := []byte{scFrameTable, 2, 0, 2}
	hello := slices.Concat(table, u32le(10, 20))
	cases := []struct {
		name   string
		frames [][]byte
		want   string
	}{
		// frames without presence bytes take the slice decode: its one
		// bounds check and the length check behind it stand in for a check
		// per value — a frame one value long, one value short, and off by
		// a single byte either way
		{"values longer than the plan", [][]byte{hello, slices.Concat([]byte{0}, u32le(1, 2, 3))}, "4 bytes beyond the values of 2 handshaken destinations"},
		{"values shorter than the plan", [][]byte{hello, slices.Concat([]byte{0}, u32le(1))}, "underflow"},
		{"values one byte long", [][]byte{hello, slices.Concat([]byte{0}, u32le(1, 2), []byte{0})}, "1 bytes beyond the values of 2 handshaken destinations"},
		{"values one byte short", [][]byte{hello, slices.Concat([]byte{0}, u32le(1, 2))[:8]}, "underflow"},
		{"handshake frame one value short", [][]byte{slices.Concat(table, u32le(10))}, "underflow"},
		{"presence byte missing", [][]byte{hello, {scFramePartial}}, "underflow"},
		{"index >= LocalCount", [][]byte{slices.Concat([]byte{scFrameTable, 1, 4}, u32le(1))}, "destination list entry 0"},
		{"index sum >= LocalCount", [][]byte{slices.Concat([]byte{scFrameTable, 2, 3, 1}, u32le(1, 2))}, "destination list entry 1"},
		{"descending list", [][]byte{slices.Concat([]byte{scFrameTable, 2, 2, 0}, u32le(1, 2))}, "destination list entry 1"},
		{"list longer than the worker", [][]byte{slices.Concat([]byte{scFrameTable, 5, 0, 1, 1, 1, 1}, u32le(1, 2, 3, 4, 5))}, "destination list of 5 entries"},
		{"empty list", [][]byte{{scFrameTable, 0}}, "destination list of 0 entries"},
		{"second handshake", [][]byte{hello, hello}, "second destination list"},
		{"values before any handshake", [][]byte{slices.Concat([]byte{0}, u32le(1, 2))}, "values before any destination list"},
		{"unknown flags", [][]byte{slices.Concat([]byte{0x80}, u32le(1))}, "unknown frame flags"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runRogue(tc.frames)
			if err == nil {
				t.Fatal("hostile frame was accepted")
			}
			for _, s := range []string{tc.want, "ScatterCombine", "from worker 0"} {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("error %q does not mention %q", err, s)
				}
			}
			if strings.Contains(err.Error(), "runtime error") {
				t.Errorf("frame reached an unchecked access: %v", err)
			}
		})
	}

	// the well-formed script is accepted and lands where the list says
	recv, err := runRogue([][]byte{hello, slices.Concat([]byte{0}, u32le(3, 4)), slices.Concat([]byte{scFramePartial, 0b10}, u32le(9))})
	if err != nil {
		t.Fatal(err)
	}
	for li, want := range []uint32{3, 0, 9, 0} {
		if recv.in.val[li] != want {
			t.Errorf("local %d holds %d want %d", li, recv.in.val[li], want)
		}
	}
}

// A plan built privately from AddAddr is not derivable from the
// fragments, so it travels in the checkpoint (as its registrations):
// restoring from any cut — before the registering superstep's handshake
// round or after — must reproduce the clean run exactly.
func TestScatterCombinePrivatePlanCheckpointRestore(t *testing.T) {
	const n, steps = 40, 6
	part := partition.MustHash(n, 3)
	run := func(hook *ckpt.Hook) []uint32 {
		out := make([]uint32, n)
		_, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 20, Checkpoint: hook}, func(w *engine.Worker) {
			acc := make([]uint32, w.LocalCount())
			w.Checkpoint(
				func(buf *ser.Buffer) { ckpt.SaveSlice(buf, ser.Uint32Codec{}, acc) },
				func(buf *ser.Buffer) { ckpt.LoadSlice(buf, ser.Uint32Codec{}, acc) },
			)
			sc := NewScatterCombine[uint32](w, ser.Uint32Codec{}, Sum[uint32]())
			w.Compute = func(li int) {
				id, step := w.GlobalID(li), w.Superstep()
				if step == 1 {
					sc.AddAddr(w.Addr((id + 1) % n))
					sc.AddAddr(w.Addr(id % 5)) // five hot receivers
				}
				if m, ok := sc.Message(li); ok {
					acc[li] = acc[li]*31 + m
				}
				out[id] = acc[li]
				if step > steps {
					w.VoteToHalt()
				} else if step > 1 && (int(id)+step)%3 != 0 { // silent first, partial afterwards
					sc.SetMessage(id + uint32(step))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
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

// keepAllCuts hides the directory store's Pruner.
type keepAllCuts struct{ ckpt.Store }
