package partition

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func checkBijection(t *testing.T, p *Partition) {
	t.Helper()
	n := p.NumVertices()
	seen := make([]bool, n)
	total := 0
	for w := 0; w < p.NumWorkers(); w++ {
		total += p.LocalCount(w)
		for li := 0; li < p.LocalCount(w); li++ {
			id := p.GlobalID(w, li)
			if seen[id] {
				t.Fatalf("vertex %d appears twice", id)
			}
			seen[id] = true
			if p.Owner(id) != w {
				t.Fatalf("owner(%d)=%d want %d", id, p.Owner(id), w)
			}
			if p.LocalIndex(id) != li {
				t.Fatalf("local(%d)=%d want %d", id, p.LocalIndex(id), li)
			}
		}
	}
	if total != n {
		t.Fatalf("total locals %d want %d", total, n)
	}
}

func TestHashPartition(t *testing.T) {
	p := MustHash(103, 4)
	if p.NumWorkers() != 4 || p.NumVertices() != 103 {
		t.Fatalf("basic shape wrong")
	}
	checkBijection(t, p)
	// balance within 1
	min, max := 1<<30, 0
	for w := 0; w < 4; w++ {
		c := p.LocalCount(w)
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("imbalance: min=%d max=%d", min, max)
	}
}

func TestGreedyPartition(t *testing.T) {
	g := graph.Grid(20, 20, 5, 1)
	p := MustGreedy(g, 4)
	checkBijection(t, p)
	// near-balanced
	for w := 0; w < 4; w++ {
		c := p.LocalCount(w)
		if c < 80 || c > 120 {
			t.Errorf("worker %d has %d vertices", w, c)
		}
	}
	// locality: greedy cut must be far below hash cut on a grid
	hashCut := EdgeCut(g, MustHash(g.NumVertices(), 4))
	greedyCut := EdgeCut(g, p)
	if greedyCut > hashCut/3 {
		t.Errorf("greedy cut %.3f not much better than hash cut %.3f", greedyCut, hashCut)
	}
}

// TestGreedyDeterministicOnUndirectifiedRMAT: greedy placement walks
// adjacency rows in order, so it repeats only if the undirected view it
// walks does. Each case builds its graph afresh twice and must get the
// same owner vector both times; the placement must also stay in range,
// fill every part but the last to capacity, and cut no more edges than
// hash placement.
func TestGreedyDeterministicOnUndirectifiedRMAT(t *testing.T) {
	tests := []struct {
		name    string
		build   func() *graph.Graph
		workers int
	}{
		{"web graph", func() *graph.Graph {
			return graph.Undirectify(graph.RMAT(11, 8, 101, graph.RMATOptions{NoSelfLoops: true}))
		}, 4},
		{"social graph", func() *graph.Graph { return graph.SocialRMAT(10, 16, 104) }, 4},
		{"sparse social graph", func() *graph.Graph { return graph.SocialRMAT(11, 2, 103) }, 3},
		{"weighted", func() *graph.Graph {
			return graph.Undirectify(graph.RMAT(9, 8, 107, graph.RMATOptions{Weighted: true, MaxWeight: 1000, NoSelfLoops: true}))
		}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := tt.build()
			p := MustGreedy(g, tt.workers)
			again := MustGreedy(tt.build(), tt.workers)
			if !slices.Equal(p.Owners(), again.Owners()) {
				t.Fatal("two runs placed the same graph differently")
			}
			checkBijection(t, p)
			capacity := (g.NumVertices() + tt.workers - 1) / tt.workers
			for w := 0; w < tt.workers-1; w++ {
				if c := p.LocalCount(w); c != capacity {
					t.Errorf("worker %d holds %d vertices, want %d", w, c, capacity)
				}
			}
			greedyCut, hashCut := EdgeCut(g, p), EdgeCut(g, MustHash(g.NumVertices(), tt.workers))
			if greedyCut > hashCut {
				t.Errorf("greedy cut %.3f above hash cut %.3f", greedyCut, hashCut)
			}
		})
	}
}

func TestGreedyCoversDisconnected(t *testing.T) {
	// graph with isolated vertices and several components
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 5, Dst: 6}, {Src: 6, Dst: 5}}
	g := graph.FromEdges(10, edges, false)
	p := MustGreedy(g, 3)
	checkBijection(t, p)
}

func TestSingleWorker(t *testing.T) {
	p := MustHash(10, 1)
	checkBijection(t, p)
	if EdgeCut(graph.Chain(10), p) != 0 {
		t.Errorf("single worker should have zero cut")
	}
}

func TestEdgeCutEmptyGraph(t *testing.T) {
	g := graph.FromEdges(5, nil, false)
	if EdgeCut(g, MustHash(5, 2)) != 0 {
		t.Error("empty graph cut should be 0")
	}
}

func TestHashPartitionProperty(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw)%500 + 1
		w := int(wRaw)%8 + 1
		p := MustHash(n, w)
		for v := 0; v < n; v++ {
			id := graph.VertexID(v)
			if p.GlobalID(p.Owner(id), p.LocalIndex(id)) != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The uint16 owner representation used to overflow silently: worker
// counts past 65535 wrapped and corrupted owner vectors. Construction
// must reject them now.
func TestWorkerCountValidation(t *testing.T) {
	for _, bad := range []int{0, -1, MaxWorkers + 1, 1 << 20} {
		if _, err := Hash(10, bad); err == nil {
			t.Errorf("Hash accepted numWorkers=%d", bad)
		}
		if _, err := Greedy(graph.Chain(10), bad); err == nil {
			t.Errorf("Greedy accepted numWorkers=%d", bad)
		}
		if _, err := FromOwners(bad, make([]uint16, 4)); err == nil {
			t.Errorf("FromOwners accepted numWorkers=%d", bad)
		}
	}
	// Hash accepts the maximum; Greedy reserves it as its sentinel.
	if _, err := Hash(10, MaxWorkers); err != nil {
		t.Errorf("Hash rejected numWorkers=%d: %v", MaxWorkers, err)
	}
	if _, err := Greedy(graph.Chain(10), MaxWorkers); err == nil {
		t.Error("Greedy accepted its sentinel worker count")
	}
	if _, err := Greedy(graph.Chain(10), MaxWorkers-1); err != nil {
		t.Errorf("Greedy rejected numWorkers=%d: %v", MaxWorkers-1, err)
	}
}

func TestFromOwnersValidatesEntries(t *testing.T) {
	if _, err := FromOwners(2, []uint16{0, 1, 2}); err == nil {
		t.Error("FromOwners accepted an owner out of range")
	}
	p, err := FromOwners(3, []uint16{2, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	checkBijection(t, p)
}

func TestByName(t *testing.T) {
	g := graph.Grid(10, 10, 5, 1)
	for _, name := range []string{"", PlacementHash, PlacementGreedy} {
		if _, err := ByName(name, g, 4); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("metis", g, 4); err == nil {
		t.Error("ByName accepted an unknown placement")
	}
}
