package channel

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/ser"
)

// propPair is one update of a Propagation frame.
type propPair[M comparable] struct {
	li uint32
	v  M
}

// propRound is what one exchange round did: the frames by source and
// destination worker, and every worker's vertex values once it had
// applied what it received.
type propRound[M comparable] struct {
	frames [][][]propPair[M]
	val    [][]M
	has    [][]bool
}

// refPropagation is the Propagation channel as it was before it had a
// plan and kernels, kept as a plain loop that plays every worker of a
// job in turn: per edge an address to decode, an owner to branch on, a
// transform to test for and a Combine to call; remote updates combined
// per destination and all of them shipped, round after round; "changed"
// is plain inequality. The channel must agree with it on everything but
// the updates its send filter proves redundant.
type refPropagation[M comparable] struct {
	fs        *frag.Fragments
	combine   func(M, M) M
	transform func(M, int32) M

	val    [][]M
	has    [][]bool
	queued [][]bool
	queue  [][]uint32
	woke   [][]bool // the channel moved the vertex's value this superstep
}

func newRefPropagation[M comparable](fs *frag.Fragments, combine func(M, M) M, transform func(M, int32) M) *refPropagation[M] {
	r := &refPropagation[M]{fs: fs, combine: combine, transform: transform}
	for w := 0; w < fs.NumWorkers(); w++ {
		n := fs.Frag(w).LocalCount()
		r.val = append(r.val, make([]M, n))
		r.has = append(r.has, make([]bool, n))
		r.queued = append(r.queued, make([]bool, n))
		r.woke = append(r.woke, make([]bool, n))
		r.queue = append(r.queue, nil)
	}
	return r
}

func (r *refPropagation[M]) enqueue(w int, li uint32) {
	if !r.queued[w][li] {
		r.queued[w][li] = true
		r.queue[w] = append(r.queue[w], li)
	}
}

func (r *refPropagation[M]) setValue(w int, li uint32, m M) {
	r.val[w][li], r.has[w][li] = m, true
	r.enqueue(w, li)
}

func (r *refPropagation[M]) apply(w int, li uint32, m M) {
	if r.has[w][li] {
		nv := r.combine(r.val[w][li], m)
		if nv == r.val[w][li] {
			return
		}
		m = nv
	}
	r.val[w][li], r.has[w][li], r.woke[w][li] = m, true, true
	r.enqueue(w, li)
}

// superstep runs the exchange rounds that follow one compute phase.
func (r *refPropagation[M]) superstep() []propRound[M] {
	m := r.fs.NumWorkers()
	var rounds []propRound[M]
	for {
		round := propRound[M]{frames: make([][][]propPair[M], m)}
		for w := 0; w < m; w++ {
			f := r.fs.Frag(w)
			staged := make([]map[uint32]M, m)
			order := make([][]uint32, m)
			for d := range staged {
				staged[d] = make(map[uint32]M)
			}
			for head := 0; head < len(r.queue[w]); head++ { // FIFO
				li := r.queue[w][head]
				r.queued[w][li] = false
				v := r.val[w][li]
				for i, a := range f.Neighbors(int(li)) {
					msg := v
					if r.transform != nil {
						msg = r.transform(v, f.NeighborWeights(int(li))[i])
					}
					if d := a.Worker(); d == w {
						r.apply(w, a.Local(), msg)
					} else if old, ok := staged[d][a.Local()]; ok {
						staged[d][a.Local()] = r.combine(old, msg)
					} else {
						staged[d][a.Local()] = msg
						order[d] = append(order[d], a.Local())
					}
				}
			}
			r.queue[w] = r.queue[w][:0]
			round.frames[w] = make([][]propPair[M], m)
			for d, lis := range order {
				for _, li := range lis {
					round.frames[w][d] = append(round.frames[w][d], propPair[M]{li, staged[d][li]})
				}
			}
		}
		again := false
		for dst := 0; dst < m; dst++ {
			for src := 0; src < m; src++ {
				for _, p := range round.frames[src][dst] {
					r.apply(dst, p.li, p.v)
				}
			}
			round.val = append(round.val, slices.Clone(r.val[dst]))
			round.has = append(round.has, slices.Clone(r.has[dst]))
			again = again || len(r.queue[dst]) > 0
		}
		rounds = append(rounds, round)
		if !again {
			return rounds
		}
	}
}

// propTap registers in a Propagation's place and records, per superstep
// and round, the frames its worker sent and its vertex values after the
// receive.
type propTap[M comparable] struct {
	*Propagation[M]
	round  int
	frames map[[2]int][][]byte // [superstep, round] -> per destination
	gotVal map[[2]int][]M
	gotHas map[[2]int][]bool
}

func newPropTap[M comparable](c *Propagation[M]) *propTap[M] {
	p := &propTap[M]{Propagation: c, frames: map[[2]int][][]byte{}, gotVal: map[[2]int][]M{}, gotHas: map[[2]int][]bool{}}
	c.w.Register(p)
	return p
}

func (p *propTap[M]) AfterCompute() {
	p.round = 0
	p.Propagation.AfterCompute()
}

func (p *propTap[M]) Serialize(dst int, buf *ser.Buffer) {
	mark := buf.Len()
	p.Propagation.Serialize(dst, buf)
	at := [2]int{p.w.Superstep(), p.round}
	if p.frames[at] == nil {
		p.frames[at] = make([][]byte, p.w.NumWorkers())
	}
	p.frames[at][dst] = slices.Clone(buf.Bytes()[mark:])
}

func (p *propTap[M]) Again() bool {
	at := [2]int{p.w.Superstep(), p.round}
	has := make([]bool, p.locals)
	for li := range has {
		has[li] = p.st[li]&pvHas != 0
	}
	p.gotVal[at], p.gotHas[at] = slices.Clone(p.val[:p.locals]), has
	p.round++
	return p.Propagation.Again()
}

// decodePropFrame reads a frame back: count, indices, values.
func decodePropFrame[M comparable](t *testing.T, codec ser.Codec[M], frame []byte) []propPair[M] {
	t.Helper()
	if len(frame) == 0 {
		return nil
	}
	buf := ser.FromBytes(frame)
	pairs := make([]propPair[M], buf.ReadUvarint())
	for k := range pairs {
		pairs[k].li = uint32(buf.ReadUvarint())
	}
	for k := range pairs {
		pairs[k].v = codec.Decode(buf)
	}
	if buf.Remaining() != 0 {
		t.Fatalf("frame of %d updates leaves %d bytes", len(pairs), buf.Remaining())
	}
	return pairs
}

// propCase is one job of TestPropagationMatchesScalarReference. seed is
// what a computing vertex does with its current value: return a value to
// SetValue it.
type propCase[M comparable] struct {
	codec     ser.Codec[M]
	combine   Combiner[M]
	transform func(M, int32) M
	register  bool // AddAddr the fragment's edges instead of adopting its plan
	seed      func(step int, id graph.VertexID, cur M, has bool) (M, bool)
}

// checkAgainstReference runs the case on the channel and on the
// reference and returns the payload bytes each shipped. Every vertex
// votes to halt in every superstep, so which vertices compute from
// superstep 2 on is exactly which ones the channel woke.
func checkAgainstReference[M comparable](t *testing.T, name string, fs *frag.Fragments, tc propCase[M]) (got, want int) {
	t.Helper()
	m := fs.NumWorkers()
	const maxSteps = 12
	taps := make([]*propTap[M], m)
	computed := make([][]bool, maxSteps+2) // [superstep][global id]
	for s := range computed {
		computed[s] = make([]bool, fs.Part.NumVertices())
	}
	met, err := engine.Run(engine.Config{Frags: fs, MaxSupersteps: maxSteps}, func(w *engine.Worker) {
		c := &Propagation[M]{w: w, codec: tc.codec, combine: tc.combine, transform: tc.transform}
		taps[w.WorkerID()] = newPropTap(c)
		f := w.Frag()
		w.Compute = func(li int) {
			id, step := w.GlobalID(li), w.Superstep()
			computed[step][id] = true
			if step == 1 && tc.register {
				for i, a := range f.Neighbors(li) {
					if tc.transform != nil {
						c.AddWeightedAddr(a, f.NeighborWeights(li)[i])
					} else {
						c.AddAddr(a)
					}
				}
			} else if step == 1 && li == 0 {
				c.UseFragment(f)
			}
			cur, has := c.RawValue(li)
			if v, ok := tc.seed(step, id, cur, has); ok {
				c.SetValue(v)
			}
			w.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	ref := newRefPropagation(fs, tc.combine.Combine, tc.transform)
	step := 0
	for {
		step++
		awake := false
		for w := 0; w < m; w++ {
			for li := 0; li < fs.Frag(w).LocalCount(); li++ {
				id := fs.Frag(w).GlobalID(li)
				runs := step == 1 || ref.woke[w][li]
				ref.woke[w][li] = false
				if runs != computed[step][id] {
					t.Fatalf("%s: superstep %d: vertex %d computes = %v, the reference channel woke it = %v", name, step, id, computed[step][id], runs)
				}
				if !runs {
					continue
				}
				awake = true
				if v, ok := tc.seed(step, id, ref.val[w][li], ref.has[w][li]); ok {
					ref.setValue(w, uint32(li), v)
				}
			}
		}
		if !awake {
			break
		}
		rounds := ref.superstep()
		for r, round := range rounds {
			at := [2]int{step, r}
			for w := 0; w < m; w++ {
				tap := taps[w]
				if tap.gotVal[at] == nil {
					t.Fatalf("%s: superstep %d ended before round %d of %d", name, step, r+1, len(rounds))
				}
				if !slices.Equal(tap.gotHas[at], round.has[w]) || !slices.Equal(tap.gotVal[at], round.val[w]) {
					t.Fatalf("%s: superstep %d round %d: worker %d holds\n%v\n%v\nthe reference\n%v\n%v", name, step, r+1, w, tap.gotVal[at], tap.gotHas[at], round.val[w], round.has[w])
				}
				for d := 0; d < m; d++ {
					var frame []byte
					if tap.frames[at] != nil {
						frame = tap.frames[at][d]
					}
					got += len(frame)
					sent := make(map[uint32]M)
					var parent ser.Buffer
					if len(round.frames[w][d]) > 0 {
						parent.WriteUvarint(uint64(len(round.frames[w][d])))
					}
					for _, p := range round.frames[w][d] {
						sent[p.li] = p.v
						parent.WriteUvarint(uint64(p.li))
						tc.codec.Encode(&parent, p.v)
					}
					want += parent.Len()
					seen := make(map[uint32]bool)
					pairs := decodePropFrame(t, tc.codec, frame)
					if len(frame) > 0 && len(pairs) == 0 {
						t.Fatalf("%s: superstep %d round %d: frame %d->%d carries no update", name, step, r+1, w, d)
					}
					for _, p := range pairs {
						if v, ok := sent[p.li]; !ok || v != p.v || seen[p.li] {
							t.Fatalf("%s: superstep %d round %d: frame %d->%d carries (%d, %v), the reference frame %v", name, step, r+1, w, d, p.li, p.v, round.frames[w][d])
						}
						seen[p.li] = true
					}
				}
			}
		}
		for w := 0; w < m; w++ {
			if taps[w].gotVal[[2]int{step, len(rounds)}] != nil {
				t.Fatalf("%s: superstep %d ran more than the reference's %d rounds", name, step, len(rounds))
			}
		}
	}
	if met.Supersteps != step-1 {
		t.Fatalf("%s: %d supersteps, the reference %d", name, met.Supersteps, step-1)
	}
	return got, want
}

// label is a struct-valued message for the CombinerFunc case: the
// smaller key wins, the smaller tag among equal keys.
type label struct {
	key uint32
	tag uint16
}

// The channel against the algorithm it replaced (refPropagation), on
// random graphs under both placements and 1, 3 and 4 workers, for the
// native Min kernels, the weighted path over them, and the kernels
// derived from a CombinerFunc over a struct, through an adopted fragment
// plan and through registrations. Superstep 1 seeds; in supersteps 2 and
// 3 half of the vertices the channel woke raise their value, which only
// SetValue can do and which the send filter must not outlive. Vertex
// values after every round, the number of rounds and supersteps, and
// the set of vertices woken must equal the reference's; every update
// shipped must be one the reference shipped in the same frame, and the
// bytes may only be fewer.
func TestPropagationMatchesScalarReference(t *testing.T) {
	und := graph.Undirectify(graph.RMAT(8, 4, 31, graph.RMATOptions{NoSelfLoops: true}))
	road := graph.RMAT(8, 5, 32, graph.RMATOptions{NoSelfLoops: true, Weighted: true, MaxWeight: 40})
	raises := func(step int, id graph.VertexID) bool { return (step == 2 || step == 3) && (int(id)/3+step)%2 == 0 }
	saved := 0
	for _, workers := range []int{1, 3, 4} {
		for _, g := range []*graph.Graph{und, road} {
			hash := partition.MustHash(g.NumVertices(), workers)
			greedy, err := partition.Greedy(g, workers)
			if err != nil {
				t.Fatal(err)
			}
			for pname, part := range map[string]*partition.Partition{"hash": hash, "greedy": greedy} {
				fs := frag.Build(g, part)
				for _, register := range []bool{false, true} {
					name := fmt.Sprintf("%d workers/%s/registered=%v", workers, pname, register)
					var got, want int
					if g == und {
						got, want = checkAgainstReference(t, "min-u32/"+name, fs, propCase[uint32]{
							codec: ser.Uint32Codec{}, combine: Min[uint32](), register: register,
							seed: func(step int, id graph.VertexID, cur uint32, has bool) (uint32, bool) {
								if step == 1 {
									return id, true
								}
								return cur + 1000 + id%7, raises(step, id)
							},
						})
						g2, w2 := checkAgainstReference(t, "func-struct/"+name, fs, propCase[label]{
							codec: ser.FuncCodec[label]{
								Enc: func(b *ser.Buffer, v label) { b.WriteUvarint(uint64(v.key)); b.WriteUvarint(uint64(v.tag)) },
								Dec: func(b *ser.Buffer) label { return label{uint32(b.ReadUvarint()), uint16(b.ReadUvarint())} },
							},
							combine: CombinerFunc(func(a, b label) label {
								if b.key < a.key || b.key == a.key && b.tag < a.tag {
									return b
								}
								return a
							}),
							register: register,
							seed: func(step int, id graph.VertexID, cur label, has bool) (label, bool) {
								if step == 1 {
									return label{id / 4, uint16(id % 4)}, true
								}
								return label{cur.key + 50, cur.tag}, raises(step, id)
							},
						})
						got, want = got+g2, want+w2
					} else {
						got, want = checkAgainstReference(t, "min-i64-weighted/"+name, fs, propCase[int64]{
							codec: ser.Int64Codec{}, combine: Min[int64](), register: register,
							transform: func(d int64, w int32) int64 { return d + int64(w) },
							seed: func(step int, id graph.VertexID, cur int64, has bool) (int64, bool) {
								if step == 1 {
									return int64(id % 5), id%40 == 0
								}
								return cur + 60, raises(step, id)
							},
						})
					}
					if got > want {
						t.Errorf("%s: %d payload bytes, the reference ships %d", name, got, want)
					}
					saved += want - got
				}
			}
		}
	}
	if saved == 0 {
		t.Error("the send filter never held an update back: it was not exercised")
	}
}

// A NaN compares unequal to itself: with "changed" defined as plain
// inequality two neighbours holding NaN re-enqueue each other forever
// inside one Serialize call, where no barrier and no Cancel reaches.
// The propagation must end, the NaN — which the built-in min lets win —
// must have reached everything connected to it and nothing else.
func TestPropagationNaNTerminates(t *testing.T) {
	const n = 12 // a path 0..5, a cycle 6..11
	edges := func(id graph.VertexID) []graph.VertexID {
		if id < 6 {
			var out []graph.VertexID
			if id > 0 {
				out = append(out, id-1)
			}
			if id < 5 {
				out = append(out, id+1)
			}
			return out
		}
		return []graph.VertexID{6 + (id-6+1)%6, 6 + (id-6+5)%6}
	}
	for _, workers := range []int{1, 3} {
		for _, nanAt := range []graph.VertexID{2, 9} {
			got := make([]float64, n)
			done := make(chan error, 1)
			go func() {
				_, err := engine.Run(engine.Config{Part: partition.MustHash(n, workers), MaxSupersteps: 10}, func(w *engine.Worker) {
					prop := NewPropagation[float64](w, ser.Float64Codec{}, Min[float64]())
					w.Compute = func(li int) {
						id := w.GlobalID(li)
						if w.Superstep() == 1 {
							for _, v := range edges(id) {
								prop.AddAddr(w.Addr(v))
							}
							if id == nanAt {
								prop.SetValue(math.NaN())
							} else {
								prop.SetValue(float64(id))
							}
							return
						}
						got[id], _ = prop.Value(li)
						w.VoteToHalt()
					}
				})
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("%d workers, NaN at %d: the propagation did not end", workers, nanAt)
			}
			for id := graph.VertexID(0); id < n; id++ {
				want := float64(id / 6 * 6) // the component's smallest id
				if id/6 == nanAt/6 {
					want = math.NaN()
				}
				if got[id] != want && !(math.IsNaN(got[id]) && math.IsNaN(want)) {
					t.Errorf("%d workers, NaN at %d: vertex %d converged to %v want %v", workers, nanAt, id, got[id], want)
				}
			}
		}
	}
}

// runRoguePropagation runs a 2-worker job over 8 vertices (4 per
// worker) in which worker 1's real Propagation[uint32] — with the edges
// registered when edges is set, without a topology otherwise — receives
// one scripted frame per superstep, and returns the job error and the
// receiving channel.
func runRoguePropagation(frames [][]byte, edges bool) (*Propagation[uint32], error) {
	var recv *Propagation[uint32]
	_, err := engine.Run(engine.Config{Part: partition.MustHash(8, 2), MaxSupersteps: 20}, func(w *engine.Worker) {
		if w.WorkerID() == 0 {
			w.Register(&rogueSender{frames: frames, perStep: 1})
		} else {
			recv = NewBlockPropagation[uint32](w, ser.Uint32Codec{}, Min[uint32]())
		}
		w.Compute = func(li int) {
			if w.WorkerID() == 1 && w.Superstep() == 1 {
				if edges {
					recv.AddAddr(frag.Pack(1, uint32(li+1)%4)) // a local ring
				}
				recv.SetValue(100 + uint32(li))
			}
			if w.Superstep() > len(frames) {
				w.VoteToHalt()
			}
		}
	})
	return recv, err
}

// A frame that claims more updates than it has bytes or the worker has
// vertices, addresses a vertex the worker does not host, or carries
// bytes beyond its values fails the job with a worker error naming the
// channel and the source, before anything was applied; the process
// stays up. A frame for a worker that registered no edges is not
// hostile — such a worker still owns destinations — and is applied.
func TestPropagationRejectsHostileFrames(t *testing.T) {
	good := slices.Concat(uvarints(2, 0, 2), u32le(7, 8))
	cases := []struct {
		name   string
		frames [][]byte
		want   string
	}{
		{"count beyond the bytes", [][]byte{slices.Concat(uvarints(200, 0, 2), u32le(7, 8))}, "frame of 200 updates in 10 bytes"},
		{"count beyond the worker", [][]byte{slices.Concat(uvarints(5, 0, 1, 2, 3, 0), u32le(1, 2, 3, 4, 5))}, "frame of 5 updates"},
		{"huge count", [][]byte{uvarints(1 << 62)}, "updates in 0 bytes"},
		{"index >= LocalCount", [][]byte{slices.Concat(uvarints(2, 0, 4), u32le(7, 8))}, "update 1 addresses local 4"},
		{"values one short", [][]byte{slices.Concat(uvarints(2, 0, 2), u32le(7))}, "underflow"},
		{"values one byte short", [][]byte{good[:len(good)-1]}, "underflow"},
		{"trailing value", [][]byte{slices.Concat(good, u32le(9))}, "4 bytes beyond the values of 2 updates"},
		{"trailing byte", [][]byte{slices.Concat(good, []byte{0})}, "1 bytes beyond the values of 2 updates"},
		{"truncated index", [][]byte{{1, 0x80}}, "uvarint"},
		{"bad frame after a good one", [][]byte{good, slices.Concat(uvarints(1, 9), u32le(1))}, "update 0 addresses local 9"},
	}
	for _, tc := range cases {
		for _, edges := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/edges=%v", tc.name, edges), func(t *testing.T) {
				recv, err := runRoguePropagation(tc.frames, edges)
				if err == nil {
					t.Fatal("hostile frame was accepted")
				}
				for _, s := range []string{tc.want, "Propagation", "from worker 0"} {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("error %q does not mention %q", err, s)
					}
				}
				if strings.Contains(err.Error(), "runtime error") {
					t.Errorf("frame reached an unchecked access: %v", err)
				}
				if len(tc.frames) == 1 {
					for li := 0; li < 4; li++ {
						if v, _ := recv.RawValue(li); v < 100 {
							t.Errorf("the rejected frame left %d at local %d", v, li)
						}
					}
				}
			})
		}
	}

	// the well-formed frame is applied where it says — and, with the
	// ring registered, pushed on from there
	for _, edges := range []bool{true, false} {
		recv, err := runRoguePropagation([][]byte{good, slices.Concat(uvarints(1, 3), u32le(5))}, edges)
		if err != nil {
			t.Fatal(err)
		}
		want := []uint32{7, 101, 8, 5}
		if edges {
			want = []uint32{5, 5, 5, 5}
		}
		for li, v := range want {
			if got, _ := recv.RawValue(li); got != v {
				t.Errorf("edges=%v: local %d holds %d want %d", edges, li, got, v)
			}
		}
	}
}

// A checkpoint records that the channel adopted its fragment's plan, not
// the adjacency: on an RMAT graph of scale 12 the records of a WCC-style
// job are under a quarter of what they were when every one carried its
// worker's CSR (offsets and packed addresses as varints, as the
// channel used to write them). A registered, weighted topology travels
// as its registrations. Both restore to the clean run's values from
// every cut.
func TestPropagationCheckpointSavesAdoptionNotAdjacency(t *testing.T) {
	g := graph.Undirectify(graph.RMAT(12, 16, 7, graph.RMATOptions{NoSelfLoops: true, Weighted: true, MaxWeight: 30}))
	n := g.NumVertices()
	fs := frag.Build(g, partition.MustHash(n, 4))
	const steps = 2 // seed, raise; superstep 3 reads
	run := func(register bool, hook *ckpt.Hook) []int64 {
		out := make([]int64, n)
		_, err := engine.Run(engine.Config{Frags: fs, MaxSupersteps: 10, Checkpoint: hook}, func(w *engine.Worker) {
			f := w.Frag()
			w.Checkpoint(func(*ser.Buffer) {}, func(*ser.Buffer) {})
			prop := NewWeightedPropagation[int64](w, ser.Int64Codec{}, Min[int64](), func(d int64, wt int32) int64 { return d + int64(wt) })
			w.Compute = func(li int) {
				id, step := w.GlobalID(li), w.Superstep()
				switch {
				case step == 1 && register:
					for i, a := range f.Neighbors(li) {
						prop.AddWeightedAddr(a, f.NeighborWeights(li)[i])
					}
				case step == 1 && li == 0:
					prop.UseFragment(f)
				}
				if cur, _ := prop.RawValue(li); step == 1 && id%64 == 0 {
					prop.SetValue(int64(id))
				} else if step == 2 && id%3 == 0 {
					prop.SetValue(cur + 7)
				}
				out[id], _ = prop.RawValue(li)
				if step > steps {
					w.VoteToHalt()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, register := range []bool{false, true} {
		want := run(register, nil)
		store := ckpt.NewDir(t.TempDir())
		if got := run(register, &ckpt.Hook{Store: keepAllCuts{store}, Job: "t", Interval: 1}); !slices.Equal(got, want) {
			t.Fatalf("registered=%v: checkpointing changed the result", register)
		}
		for s := 1; s <= steps; s++ {
			if got := run(register, &ckpt.Hook{Store: store, Job: "t", Restore: s}); !slices.Equal(got, want) {
				t.Fatalf("registered=%v: restored from superstep %d: values differ from the clean run", register, s)
			}
		}
		if register {
			continue
		}
		records, adjacency := 0, 0
		for w := 0; w < fs.NumWorkers(); w++ {
			rec, err := store.Get("t", 1, w)
			if err != nil {
				t.Fatal(err)
			}
			records += len(rec)
			f := fs.Frag(w)
			offsets := make([]int32, f.LocalCount()+1)
			for li := 0; li < f.LocalCount(); li++ {
				offsets[li+1] = offsets[li] + int32(f.OutDegree(li))
			}
			var csr ser.Buffer
			ckpt.SaveSlice(&csr, i32s, offsets)
			ckpt.SaveSlice(&csr, addrs, f.Adj())
			ckpt.SaveSlice(&csr, i32s, f.AllWeights())
			adjacency += csr.Len()
		}
		if 4*records >= records+adjacency {
			t.Errorf("superstep 1's records hold %d bytes; with the adjacency in them they held %d", records, records+adjacency)
		}
	}
}
