package algorithms

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ser"
)

// sameResult compares two runs' payloads for bit-identical equality —
// the recovery contract is that a restored run is indistinguishable
// from an uninterrupted one.
func sameResult(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Labels, got.Labels) {
		t.Fatalf("%s: labels diverge", tag)
	}
	if !reflect.DeepEqual(want.Ranks, got.Ranks) {
		t.Fatalf("%s: ranks diverge", tag)
	}
	if !reflect.DeepEqual(want.Dists, got.Dists) {
		t.Fatalf("%s: dists diverge", tag)
	}
	if (want.MSF == nil) != (got.MSF == nil) {
		t.Fatalf("%s: msf presence diverges", tag)
	}
	if want.MSF != nil && !reflect.DeepEqual(*want.MSF, *got.MSF) {
		t.Fatalf("%s: msf diverges:\nwant %+v\ngot  %+v", tag, *want.MSF, *got.MSF)
	}
}

// TestCheckpointRestoreMatchesCleanRun runs every registered
// (algorithm, engine, variant) triple three ways — clean, saving a
// checkpoint every superstep, and restored from each cut that survives
// pruning — and demands bit-identical results throughout.
func TestCheckpointRestoreMatchesCleanRun(t *testing.T) {
	directed := graph.SocialRMAT(7, 3, 42)
	undirected := graph.Undirectify(directed)
	weighted := graph.Undirectify(graph.RMAT(7, 4, 11,
		graph.RMATOptions{Weighted: true, MaxWeight: 50, NoSelfLoops: true}))

	for _, name := range []string{"pagerank", "sssp", "wcc", "pointerjump", "sv", "scc", "msf"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("missing %q", name)
		}
		g := directed
		switch {
		case spec.NeedsWeights:
			g = weighted
		case spec.NeedsUndirected:
			g = undirected
		}
		params := Params{Iterations: 10, Source: 3}
		for _, eng := range spec.Engines() {
			for _, variant := range spec.Variants(eng) {
				t.Run(fmt.Sprintf("%s/%s/%s", name, eng, variant), func(t *testing.T) {
					part := partition.MustHash(g.NumVertices(), 4)
					opts := Options{Part: part, MaxSupersteps: 200000}
					want, err := spec.Run(eng, variant, g, opts, params)
					if err != nil {
						t.Fatal(err)
					}

					store := ckpt.NewDir(t.TempDir())
					saveOpts := opts
					saveOpts.Checkpoint = &ckpt.Hook{Store: store, Job: "t", Interval: 1}
					got, err := spec.Run(eng, variant, g, saveOpts, params)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, "checkpointing on", want, got)

					latest, err := store.LatestComplete("t", part.NumWorkers())
					if err != nil {
						t.Fatal(err)
					}
					if latest == 0 {
						t.Fatal("no complete checkpoint was saved")
					}
					// Saving at interval 1 prunes as it goes: after the
					// run only the last two cuts may remain, so early
					// supersteps must be gone (disk stays bounded) and
					// both surviving cuts must restore.
					if latest > 2 {
						if _, err := store.Get("t", 1, 0); err == nil {
							t.Fatalf("superstep 1 survived pruning (latest %d)", latest)
						}
					}
					steps := []int{latest}
					if prev := latest - 1; prev > 0 {
						if _, err := store.Get("t", prev, 0); err == nil {
							steps = append(steps, prev)
						}
					}
					for _, s := range steps {
						restOpts := opts
						restOpts.Checkpoint = &ckpt.Hook{Store: store, Job: "t", Restore: s}
						res, err := spec.Run(eng, variant, g, restOpts, params)
						if err != nil {
							t.Fatalf("restore from superstep %d: %v", s, err)
						}
						sameResult(t, fmt.Sprintf("restored from superstep %d/%d", s, latest), want, res)
					}
				})
			}
		}
	}
}

// TestCheckpointRestoreRejectsWrongShape pins the defensive path: a
// checkpoint cut under one partition must not silently restore under
// another.
func TestCheckpointRestoreRejectsWrongShape(t *testing.T) {
	g := graph.Undirectify(graph.SocialRMAT(6, 3, 7))
	spec, _ := Lookup("wcc")
	store := ckpt.NewDir(t.TempDir())

	opts := Options{Part: partition.MustHash(g.NumVertices(), 4), MaxSupersteps: 200000,
		Checkpoint: &ckpt.Hook{Store: store, Job: "t", Interval: 1}}
	if _, err := spec.Run(EngineChannel, "", g, opts, Params{}); err != nil {
		t.Fatal(err)
	}
	latest, err := store.LatestComplete("t", 4)
	if err != nil || latest == 0 {
		t.Fatalf("no checkpoint: %d, %v", latest, err)
	}

	// same worker count, different partition shape → the per-worker
	// vertex counts change and the restore must fail loudly
	bad := Options{Part: partition.MustHash(g.NumVertices(), 2), MaxSupersteps: 200000,
		Checkpoint: &ckpt.Hook{Store: store, Job: "t", Restore: latest}}
	if _, err := spec.Run(EngineChannel, "", g, bad, Params{}); err == nil {
		t.Fatal("expected restore error under a different partition")
	}

	// missing superstep → fail, not silently start fresh
	gone := Options{Part: partition.MustHash(g.NumVertices(), 4), MaxSupersteps: 200000,
		Checkpoint: &ckpt.Hook{Store: store, Job: "t", Restore: latest + 7}}
	if _, err := spec.Run(EngineChannel, "", g, gone, Params{}); err == nil {
		t.Fatal("expected restore error for a missing checkpoint")
	}
}

// keepAll hides the directory store's Pruner so every cut of a run
// stays restorable.
type keepAll struct{ ckpt.Store }

// TestCheckpointRestoreAcrossScatterHandshake restores the two jobs
// that adopt the fragment scatter plan from every cut of the run: the
// cut at superstep 1 sits before the flush of the round that carries
// the destination lists (the record's outgoing buffers hold them, and
// the restored round must deliver them), the cut at superstep 2 is the
// first whose record must carry the received lists, and the rest are
// mid-run. The adopted plan itself is never in the record: the
// restoring job adopts it again from its fragments. What the record
// does carry per stream is the values of its last dense frame, one per
// listed destination (width bytes each, the scatter codec's), which
// delta frames are decoded against: S-V's later cuts must have sent
// some and restore from them to the clean result, PageRank's frames
// must all be dense.
func TestCheckpointRestoreAcrossScatterHandshake(t *testing.T) {
	directed := graph.SocialRMAT(10, 16, 42)
	for _, tc := range []struct {
		alg, variant string
		g            *graph.Graph
		width        int
		delta        bool
	}{
		{"pagerank", "scatter", directed, 8, false},
		{"sv", "both", graph.Undirectify(directed), 4, true},
	} {
		t.Run(tc.alg+"/"+tc.variant, func(t *testing.T) {
			spec, _ := Lookup(tc.alg)
			part := partition.MustHash(tc.g.NumVertices(), 4)
			frags := frag.Build(tc.g, part)
			opts := Options{Part: part, Frags: frags, MaxSupersteps: 1000}
			params := Params{Iterations: 6}
			want, err := spec.Run(EngineChannel, tc.variant, tc.g, opts, params)
			if err != nil {
				t.Fatal(err)
			}
			store := keepAll{ckpt.NewDir(t.TempDir())}
			saveOpts := opts
			saveOpts.Checkpoint = &ckpt.Hook{Store: store, Job: "t", Interval: 1}
			got, err := spec.Run(EngineChannel, tc.variant, tc.g, saveOpts, params)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "checkpointing on", want, got)
			latest, err := store.LatestComplete("t", part.NumWorkers())
			if err != nil || latest < 4 {
				t.Fatalf("latest complete cut %d, %v", latest, err)
			}
			deltaCuts := 0
			for s := 1; s <= latest; s++ {
				delta := 0
				for w := 0; w < part.NumWorkers(); w++ {
					data, err := store.Get("t", s, w)
					if err != nil {
						t.Fatal(err)
					}
					rec, err := ckpt.Decode(data)
					if err != nil {
						t.Fatal(err)
					}
					delta += deltaFrames(t, rec)
					// both jobs register the ScatterCombine first; two
					// varints per edge was the floor of the old record,
					// beyond the last frames' values
					listed := 0
					for o := 0; o < part.NumWorkers(); o++ {
						listed += len(frags.Frag(w).ScatterPlan().To[o].Dst) + len(frags.Frag(o).ScatterPlan().To[w].Dst)
					}
					if blob, edges := len(rec.Channels[0]), frags.Frag(w).NumEdges(); blob-tc.width*listed >= edges {
						t.Fatalf("cut %d worker %d: %d bytes of ScatterCombine state for %d edges and %d last values — the plan leaked into the record", s, w, blob, edges, listed)
					}
				}
				// restore on fresh fragments, as a respawned worker would
				restOpts := opts
				restOpts.Frags = frag.Build(tc.g, part)
				restOpts.Checkpoint = &ckpt.Hook{Store: store, Job: "t", Restore: s}
				res, err := spec.Run(EngineChannel, tc.variant, tc.g, restOpts, params)
				if err != nil {
					t.Fatalf("restore from superstep %d: %v", s, err)
				}
				sameResult(t, fmt.Sprintf("restored from superstep %d/%d", s, latest), want, res)
				if delta > 0 {
					deltaCuts++
				}
			}
			if tc.delta != (deltaCuts > 0) {
				t.Errorf("%d of %d cuts carry delta frames", deltaCuts, latest)
			}
		})
	}
}

// deltaFrames counts the ScatterCombine frames in rec's round buffers
// that are delta frames: the channel is registered first (id 0), and a
// delta frame's flags byte has bit 2 set (see channel.ScatterCombine).
func deltaFrames(t *testing.T, rec *ckpt.Record) int {
	t.Helper()
	n := 0
	for _, out := range rec.Out {
		buf, frame := ser.FromBytes(out), new(ser.Buffer)
		for buf.Remaining() > 0 {
			ci := buf.ReadUvarint()
			buf.ReadFrameInto(frame)
			if ci == 0 && frame.ReadUint8()&(1<<2) != 0 {
				n++
			}
		}
	}
	return n
}

// TestCheckpointRestoreSendsWhatCleanRunSends restores from every cut
// and holds the restored run's traffic to the clean run's. Every
// deterministic field of every superstep sample after the cut — bytes
// and frames both ways, per-channel bytes, rounds, active vertices —
// must be equal. The cut superstep itself is not sampled, so its share
// is checked at the fabric: the restored run must carry exactly the
// bytes and rounds the clean run's samples add up to from the cut on,
// which a restore that resent a superset of some frame would exceed.
func TestCheckpointRestoreSendsWhatCleanRunSends(t *testing.T) {
	directed := graph.SocialRMAT(8, 6, 42)
	undirected := graph.Undirectify(directed)
	for _, tc := range []struct {
		alg     string
		eng     Engine
		variant string
		g       *graph.Graph
	}{
		{"pagerank", EngineChannel, "scatter", directed},
		{"sv", EngineChannel, "both", undirected},
		{"wcc", EngineChannel, "propagation", undirected},
		{"wcc", EngineChannel, "blogel", undirected},
		{"scc", EngineChannel, "propagation", directed},
		{"sv", EnginePregel, "reqresp", undirected},
	} {
		t.Run(fmt.Sprintf("%s/%s/%s", tc.alg, tc.eng, tc.variant), func(t *testing.T) {
			const m = 4
			spec, _ := Lookup(tc.alg)
			part := partition.MustHash(tc.g.NumVertices(), m)
			params := Params{Iterations: 10}
			run := func(hook *ckpt.Hook) (*Result, []obs.SuperstepSample) {
				t.Helper()
				tr := obs.NewTrace(m)
				res, err := spec.Run(tc.eng, tc.variant, tc.g, Options{Part: part, Observer: tr, Checkpoint: hook}, params)
				if err != nil {
					t.Fatal(err)
				}
				samples := tr.Samples()
				for i := range samples {
					samples[i].ComputeNS, samples[i].BarrierWaitNS = 0, 0
				}
				return res, samples
			}
			want, clean := run(nil)
			store := keepAll{ckpt.NewDir(t.TempDir())}
			run(&ckpt.Hook{Store: store, Job: "t", Interval: 1})
			for s := 1; s <= want.Metrics.Supersteps; s++ {
				res, got := run(&ckpt.Hook{Store: store, Job: "t", Restore: s})
				sameResult(t, fmt.Sprintf("restored from superstep %d", s), want, res)
				var bytes, rounds int64
				for _, smp := range clean {
					if smp.Superstep < s {
						continue
					}
					bytes += smp.BytesSent
					if smp.Worker == 0 {
						rounds += int64(smp.Rounds)
					}
				}
				if sent := res.Metrics.NetBytes + res.Metrics.LocalBytes; sent != bytes || res.Metrics.Rounds != rounds {
					t.Fatalf("restored from superstep %d: %d bytes in %d rounds, clean run %d in %d", s, sent, res.Metrics.Rounds, bytes, rounds)
				}
				after := slices.DeleteFunc(slices.Clone(clean), func(smp obs.SuperstepSample) bool { return smp.Superstep <= s })
				if !slices.EqualFunc(got, after, func(a, b obs.SuperstepSample) bool { return reflect.DeepEqual(a, b) }) {
					t.Fatalf("restored from superstep %d: samples differ from the clean run's", s)
				}
			}
		})
	}
}
