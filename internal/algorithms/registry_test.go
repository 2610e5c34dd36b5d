package algorithms

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/seq"
)

func regOpts(g *graph.Graph) Options {
	return Options{Part: partition.MustHash(g.NumVertices(), 4), MaxSupersteps: 200000}
}

func TestRegistryLookupAndAliases(t *testing.T) {
	for _, name := range []string{"pagerank", "sssp", "wcc", "pointerjump", "sv", "scc", "msf"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("missing %q", name)
		}
		// every paper algorithm must run on both engines
		if len(spec.Engines()) != 2 {
			t.Fatalf("%s: engines %v, want both", name, spec.Engines())
		}
		for _, eng := range spec.Engines() {
			found := false
			for _, v := range spec.Variants(eng) {
				if v == DefaultVariant {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s/%s: no %q variant", name, eng, DefaultVariant)
			}
		}
	}
	for alias, canon := range map[string]string{"pr": "pagerank", "pj": "pointerjump", "cc": "wcc", "components": "wcc"} {
		spec, ok := Lookup(alias)
		if !ok || spec.Name != canon {
			t.Fatalf("alias %q: got %v, want %s", alias, spec, canon)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unexpected hit for unknown algorithm")
	}
	if len(Registry()) != 7 {
		t.Fatalf("registry size %d", len(Registry()))
	}
}

func TestRegistryRunErrors(t *testing.T) {
	g := graph.Chain(10)
	spec, _ := Lookup("wcc")
	if _, err := spec.Run("gpu", "", g, regOpts(g), Params{}); err == nil {
		t.Fatal("expected unknown-engine error")
	}
	for _, tc := range []struct{ alg, variant string }{
		{"wcc", "warp"},
		{"pagerank", "mirror"},
	} {
		spec, _ := Lookup(tc.alg)
		_, err := spec.Run(EngineChannel, tc.variant, g, regOpts(g), Params{})
		if want := fmt.Sprintf("%s/channel has no variant %q", tc.alg, tc.variant); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s/%s: got %v, want the unknown-variant error %q", tc.alg, tc.variant, err, want)
		}
	}
	if _, err := ParseEngine("gpu"); err == nil {
		t.Fatal("expected parse error")
	}
	if e, err := ParseEngine(""); err != nil || e != EngineChannel {
		t.Fatalf("default engine: %v %v", e, err)
	}
}

func TestRegistryRunMatchesOracles(t *testing.T) {
	und := graph.SocialRMAT(7, 3, 42)

	// pagerank through the registry on both engines vs the sequential oracle
	pr, _ := Lookup("pagerank")
	if vs := pr.Variants(EngineChannel); !slices.Equal(vs, []string{DefaultVariant, "scatter"}) {
		t.Fatalf("pagerank channel variants %v, want [%s scatter]", vs, DefaultVariant)
	}
	want := seq.PageRank(und, 20)
	for _, eng := range []Engine{EngineChannel, EnginePregel} {
		res, err := pr.Run(eng, "", und, regOpts(und), Params{Iterations: 20})
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind() != "ranks" || res.Metrics.Engine != eng {
			t.Fatalf("kind=%s engine=%s", res.Kind(), res.Metrics.Engine)
		}
		for i := range want {
			if math.Abs(res.Ranks[i]-want[i]) > 1e-9 {
				t.Fatalf("%s rank[%d]=%g want %g", eng, i, res.Ranks[i], want[i])
			}
		}
	}

	// sssp/pregel (the new baseline variant) vs Dijkstra
	wg := graph.Grid(8, 9, 20, 3)
	sp, _ := Lookup("sssp")
	res, err := sp.Run(EnginePregel, "", wg, regOpts(wg), Params{Source: 5})
	if err != nil {
		t.Fatal(err)
	}
	dij := seq.Dijkstra(wg, 5)
	for i := range dij {
		if res.Dists[i] != dij[i] {
			t.Fatalf("dist[%d]=%d want %d", i, res.Dists[i], dij[i])
		}
	}
}
