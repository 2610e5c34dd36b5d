package channel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
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
	var plans [3][2]*ScatterCombine[float64]
	_, err := engine.Run(engine.Config{Frags: fs, MaxSupersteps: 20}, func(w *engine.Worker) {
		f := w.Frag()
		adopted := NewScatterCombine[float64](w, ser.Float64Codec{}, Sum[float64]())
		adopted.UseFragment(f)
		private := NewScatterCombine[float64](w, ser.Float64Codec{}, Sum[float64]())
		plans[w.WorkerID()] = [2]*ScatterCombine[float64]{adopted, private}
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
	for w, p := range plans {
		if !reflect.DeepEqual(p[0].plan, p[1].plan) {
			t.Fatalf("worker %d: the plan built from AddAddr differs from the fragment's", w)
		}
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

// frameTap registers in a ScatterCombine's place and records every frame
// it serializes: frames[superstep][dst].
type frameTap struct {
	*ScatterCombine[float64]
	frames map[int][][]byte
}

func (p *frameTap) Serialize(dst int, buf *ser.Buffer) {
	mark := buf.Len()
	p.ScatterCombine.Serialize(dst, buf)
	step := p.w.Superstep()
	if p.frames[step] == nil {
		p.frames[step] = make([][]byte, p.w.NumWorkers())
	}
	p.frames[step][dst] = slices.Clone(buf.Bytes()[mark:])
}

// The presence-byte path against its definition: in supersteps where
// only some sources scatter, every frame is the flags, the handshake if
// due, and per listed destination a presence bit plus — when any of its
// sources is fresh — the scalar left fold of the fresh sources' values
// in ascending source order. The digest pins the bytes of a fixed seed to
// what the run-major plan of PR 17 produced for it.
func TestScatterCombinePartialMatchesScalarFold(t *testing.T) {
	const workers, steps = 3, 7
	g := graph.RMAT(9, 6, 11, graph.RMATOptions{NoSelfLoops: true})
	n := g.NumVertices()
	fs := frag.Build(g, partition.MustHash(n, workers))
	loner := graph.VertexID(0) // the one silent source of step 2
	for g.OutDegree(loner) == 0 {
		loner++
	}
	rng := rand.New(rand.NewSource(21))
	fresh := make([][]bool, steps+1)
	for step := 1; step <= steps; step++ {
		fresh[step] = make([]bool, n)
		for id := range fresh[step] {
			switch step {
			case 1, 4: // half of them, handshake included
				fresh[step][id] = rng.Intn(2) == 0
			case 2: // all but one
				fresh[step][id] = graph.VertexID(id) != loner
			case 3: // a handful: most destinations hear nothing
				fresh[step][id] = rng.Intn(40) == 0
			case 5: // nobody
			case 6: // everybody: a dense frame between partial ones
				fresh[step][id] = true
			case 7: // nine in ten
				fresh[step][id] = rng.Intn(10) != 0
			}
		}
	}
	value := func(step int, id graph.VertexID) float64 {
		return math.Ldexp(1/float64(int(id)+step), int(id)%40-20)
	}

	taps := make([]*frameTap, workers)
	_, err := engine.Run(engine.Config{Frags: fs, MaxSupersteps: 20}, func(w *engine.Worker) {
		sc := &ScatterCombine[float64]{w: w, codec: ser.Float64Codec{}, combine: Sum[float64]()}
		sc.UseFragment(w.Frag())
		taps[w.WorkerID()] = &frameTap{ScatterCombine: sc, frames: make(map[int][][]byte)}
		w.Register(taps[w.WorkerID()])
		w.Compute = func(li int) {
			id, step := w.GlobalID(li), w.Superstep()
			if step > steps {
				w.VoteToHalt()
			} else if fresh[step][id] {
				sc.SetMessage(value(step, id))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	digest := sha256.New()
	silentDst := 0
	for src := 0; src < workers; src++ {
		f := fs.Frag(src)
		handshaken := false
		for step := 1; step <= steps; step++ {
			scattered, dense := false, true
			for li := 0; li < f.LocalCount(); li++ {
				if f.OutDegree(li) > 0 {
					scattered = scattered || fresh[step][f.GlobalID(li)]
					dense = dense && fresh[step][f.GlobalID(li)]
				}
			}
			for dst := 0; dst < workers; dst++ {
				// the scalar fold: sources ascending, fresh ones only
				sum, have := map[uint32]float64{}, map[uint32]bool{}
				var list []uint32
				for li := 0; li < f.LocalCount(); li++ {
					for _, a := range f.Neighbors(li) {
						if a.Worker() != dst {
							continue
						}
						if _, listed := have[a.Local()]; !listed {
							have[a.Local()] = false
							list = append(list, a.Local())
						}
						if id := f.GlobalID(li); fresh[step][id] && have[a.Local()] {
							sum[a.Local()] += value(step, id)
						} else if fresh[step][id] {
							sum[a.Local()], have[a.Local()] = value(step, id), true
						}
					}
				}
				slices.Sort(list)
				var want ser.Buffer
				if scattered && len(list) > 0 {
					flags, sent := uint8(0), 0
					if !handshaken {
						flags |= scFrameTable
					}
					if !dense {
						flags |= scFramePartial
					}
					want.WriteUint8(flags)
					if !handshaken {
						want.WriteUvarint(uint64(len(list)))
						for k, l := range list {
							if k > 0 {
								l -= list[k-1]
							}
							want.WriteUvarint(uint64(l))
						}
					}
					for k, l := range list {
						if k%8 == 0 && !dense {
							var presence uint8
							for b, lb := range list[k:min(k+8, len(list))] {
								if have[lb] {
									presence |= 1 << b
								}
							}
							want.WriteUint8(presence)
						}
						if have[l] {
							ser.Float64Codec{}.Encode(&want, sum[l])
							sent++
						} else {
							silentDst++
						}
					}
					if sent == 0 && handshaken {
						want = ser.Buffer{}
					}
				}
				var got []byte
				if fr := taps[src].frames[step]; fr != nil {
					got = fr[dst]
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("step %d, frame %d->%d: %d bytes\n%x\nthe scalar fold over the fresh sources gives %d bytes\n%x",
						step, src, dst, len(got), got, want.Len(), want.Bytes())
				}
				digest.Write([]byte{byte(step), byte(src), byte(dst), byte(len(got)), byte(len(got) >> 8)})
				digest.Write(got)
			}
			handshaken = handshaken || scattered
		}
	}
	if silentDst == 0 {
		t.Error("no destination went without a fresh source: the presence bits were not exercised")
	}
	const parent = "a8a1d71b8759a65e9142bfa688e8b40d5d7347c505a5fec9d9179c9a185b1408"
	if got := hex.EncodeToString(digest.Sum(nil)); got != parent {
		t.Errorf("frames of the fixed seed hash to %s, the parent's to %s", got, parent)
	}
}
