package channel

import (
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
		return met.NetBytes
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

// TestMirrorRejectsHostileCheckpoint restores a PageRank-style Mirror
// job from checksum-valid records whose Mirror state was altered after
// the cut. A restored table flows straight into the next Serialize,
// which runs outside any recover, so every table is checked against the
// job's shape at restore: each case must fail the job with an error, not
// kill the process. The unaltered state, re-saved the same way, must
// restore to the clean run's ranks — from the registration superstep's
// cut too, whose second round broadcasts values the record carries.
func TestMirrorRejectsHostileCheckpoint(t *testing.T) {
	g := graph.SocialRMAT(9, 8, 42)
	fs := frag.Build(g, partition.MustHash(g.NumVertices(), 4))
	var mirrors [4]*Mirror[float64]
	run := func(hook *ckpt.Hook) ([]float64, error) {
		ranks := make([]float64, g.NumVertices())
		_, err := engine.Run(engine.Config{Frags: fs, MaxSupersteps: 20, Checkpoint: hook}, func(w *engine.Worker) {
			f := w.Frag()
			pr := make([]float64, w.LocalCount())
			w.Checkpoint(
				func(buf *ser.Buffer) { ckpt.SaveSlice(buf, ser.Float64Codec{}, pr) },
				func(buf *ser.Buffer) { ckpt.LoadSlice(buf, ser.Float64Codec{}, pr) },
			)
			msg := NewMirror[float64](w, ser.Float64Codec{}, Sum[float64](), 16)
			mirrors[w.WorkerID()] = msg
			w.Compute = func(li int) {
				if w.Superstep() == 1 {
					for _, a := range f.Neighbors(li) {
						msg.AddAddr(a)
					}
					pr[li] = 1
				} else {
					sum, _ := msg.Message(li)
					pr[li] = 0.15 + 0.85*sum
				}
				ranks[w.GlobalID(li)] = pr[li]
				if w.Superstep() > 5 {
					w.VoteToHalt()
				} else if deg := f.OutDegree(li); deg > 0 {
					msg.SetMessage(pr[li] / float64(deg))
				}
			}
		})
		return ranks, err
	}
	want, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	cuts := keepAllCuts{ckpt.NewDir(t.TempDir())}
	if got, err := run(&ckpt.Hook{Store: cuts, Job: "t", Interval: 1}); err != nil || !slices.Equal(got, want) {
		t.Fatalf("checkpointing run: %v", err)
	}
	// m holds worker 0's Mirror; restoring a record's blob into it and
	// saving it again gives the blob with one table altered
	m := mirrors[0]
	locals := m.w.LocalCount()
	restoreFrom := func(cut int, alter func()) ([]float64, error) {
		data, err := cuts.Get("t", cut, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ckpt.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		m.RestoreState(ser.FromBytes(rec.Channels[0]))
		alter()
		var blob ser.Buffer
		m.SaveState(&blob)
		rec.Channels[0] = blob.Bytes()
		var enc ser.Buffer
		rec.Encode(&enc)
		store := ckpt.NewDir(t.TempDir())
		for w := range mirrors {
			if w == 0 {
				data = enc.Bytes()
			} else if data, err = cuts.Get("t", cut, w); err != nil {
				t.Fatal(err)
			}
			if err := store.Put("t", cut, w, data); err != nil {
				t.Fatal(err)
			}
		}
		return run(&ckpt.Hook{Store: store, Job: "t", Restore: cut})
	}
	for _, cut := range []int{1, 3} {
		if got, err := restoreFrom(cut, func() {}); err != nil || !slices.Equal(got, want) {
			t.Fatalf("unaltered cut %d: %v", cut, err)
		}
	}
	hubs, fan := 0, -1
	for d, lst := range m.dstHubs {
		if len(lst) > len(m.dstHubs[hubs]) {
			hubs = d
		}
		if len(m.fanout[d]) > 0 && len(m.fanout[d][0]) > 0 {
			fan = d
		}
	}
	if len(m.dstHubs[hubs]) < 2 || fan < 0 || m.srcStart[2] == m.srcStart[len(m.srcStart)-1] {
		t.Fatal("the graph gives worker 0 too few hubs for the cases")
	}
	for name, alter := range map[string]func(){
		"srcStart shifted by 2^20": func() {
			for i := range m.srcStart {
				m.srcStart[i] += 1 << 20
			}
		},
		"srcStart one entry short":              func() { m.srcStart = m.srcStart[:locals] },
		"srcStart decreases":                    func() { m.srcStart[1] = m.srcStart[len(m.srcStart)-1] },
		"srcStart ends short of bySrc":          func() { m.bySrc = append(m.bySrc, m.bySrc[0]) },
		"bySrc names a vertex past its owner's": func() { m.bySrc[0] = frag.Pack(1, uint32(fs.Frag(1).LocalCount())) },
		"bySrc names a worker past M":           func() { m.bySrc[0] = frag.Pack(4, 0) },
		"dstHubs one list short":                func() { m.dstHubs = m.dstHubs[:3] },
		"dstHubs not ascending":                 func() { slices.Reverse(m.dstHubs[hubs]) },
		"dstHubs past the locals":               func() { m.dstHubs[hubs] = append(m.dstHubs[hubs], uint32(locals)) },
		"fanout entry negative":                 func() { m.fanout[fan][0][0] = -1 },
		"fanout entry past the locals":          func() { m.fanout[fan][0][0] = int32(locals) },
	} {
		if _, err := restoreFrom(3, alter); err == nil || !strings.Contains(err.Error(), "restore checkpoint 3") {
			t.Errorf("%s: restore returned %v, want a restore error", name, err)
		}
	}
}
