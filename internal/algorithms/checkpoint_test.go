package algorithms

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
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
// cut at superstep 1 sits before the round that carries the destination
// lists (replay must rebuild them from the saved frames), the cut at
// superstep 2 is the first whose record must carry them, and the rest
// are mid-run. The adopted plan itself is never in the record: the
// restoring job adopts it again from its fragments.
func TestCheckpointRestoreAcrossScatterHandshake(t *testing.T) {
	directed := graph.SocialRMAT(10, 16, 42)
	for _, tc := range []struct {
		alg, variant string
		g            *graph.Graph
	}{
		{"pagerank", "scatter", directed},
		{"sv", "both", graph.Undirectify(directed)},
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
			for s := 1; s <= latest; s++ {
				for w := 0; w < part.NumWorkers(); w++ {
					data, err := store.Get("t", s, w)
					if err != nil {
						t.Fatal(err)
					}
					rec, err := ckpt.Decode(data)
					if err != nil {
						t.Fatal(err)
					}
					// both jobs register the ScatterCombine first; two
					// varints per edge was the floor of the old record
					if blob, edges := len(rec.Channels[0]), frags.Frag(w).NumEdges(); blob >= edges {
						t.Fatalf("cut %d worker %d: %d bytes of ScatterCombine state for %d edges — the plan leaked into the record", s, w, blob, edges)
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
			}
		})
	}
}
