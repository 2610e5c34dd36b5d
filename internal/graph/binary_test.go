package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	if a.Weighted() != b.Weighted() || a.Undirected != b.Undirected {
		t.Fatalf("flag mismatch: weighted %v/%v undirected %v/%v",
			a.Weighted(), b.Weighted(), a.Undirected, b.Undirected)
	}
	for u := 0; u < a.NumVertices(); u++ {
		na, nb := a.Neighbors(VertexID(u)), b.Neighbors(VertexID(u))
		if len(na) != len(nb) {
			t.Fatalf("degree mismatch at %d", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adj mismatch at %d[%d]", u, i)
			}
		}
		if a.Weighted() {
			wa, wb := a.NeighborWeights(VertexID(u)), b.NeighborWeights(VertexID(u))
			for i := range wa {
				if wa[i] != wb[i] {
					t.Fatalf("weight mismatch at %d[%d]", u, i)
				}
			}
		}
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	cases := map[string]*Graph{
		"rmat":     RMAT(6, 4, 3, RMATOptions{NoSelfLoops: true}),
		"weighted": Grid(7, 9, 50, 4),
		"social":   SocialRMAT(6, 3, 5),
		"empty":    FromEdges(0, nil, false),
		"isolated": FromEdges(5, []Edge{{Src: 1, Dst: 3}}, false),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, g, nil); err != nil {
				t.Fatal(err)
			}
			g2, _, err := ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, g, g2)
		})
	}
}

func TestBinaryFileRoundtrip(t *testing.T) {
	g := RMAT(5, 4, 11, RMATOptions{Weighted: true, MaxWeight: 100})
	path := filepath.Join(t.TempDir(), "g"+SnapshotExt)
	if err := WriteSnapshotFile(path, g, nil); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}

func TestBinaryRejectsCorrupt(t *testing.T) {
	g := RMAT(5, 4, 11, RMATOptions{})
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"badmagic":  append([]byte("NOPE"), good[4:]...),
		"truncated": good[:len(good)-3],
		"shorthead": good[:10],
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
				t.Fatal("expected error")
			}
		})
	}

	// A header claiming n = 2^64-1 must error, not overflow n+1 to 0 and
	// panic on the empty offsets slice.
	hostile := make([]byte, 28)
	copy(hostile, "GCSR")
	hostile[4] = 1 // version
	for i := 12; i < 20; i++ {
		hostile[i] = 0xff // n
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(hostile)); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Fatalf("hostile header: got %v", err)
	}

	// Out-of-range adjacency entry: flip a vertex id beyond n.
	bad := append([]byte(nil), good...)
	adjStart := 28 + 8*(g.NumVertices()+1)
	for i := 0; i < 4; i++ {
		bad[adjStart+i] = 0xff
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("expected out-of-range error, got %v", err)
	}
}

// Version-2 snapshots carry named placements; they must round-trip, and
// a reader that wants only the graph must still get it.
func TestSnapshotPlacementsRoundTrip(t *testing.T) {
	g := Grid(6, 7, 9, 3)
	n := g.NumVertices()
	hash := make([]uint16, n)
	greedy := make([]uint16, n)
	for v := 0; v < n; v++ {
		hash[v] = uint16(v % 4)
		greedy[v] = uint16(v * 4 / n)
	}
	placements := []Placement{
		{Name: "hash", Workers: 4, Owner: hash},
		{Name: "greedy", Workers: 4, Owner: greedy},
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g, placements); err != nil {
		t.Fatal(err)
	}
	g2, got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != n || g2.NumEdges() != g.NumEdges() || !g2.Weighted() {
		t.Fatalf("graph did not round-trip")
	}
	if len(got) != 2 {
		t.Fatalf("got %d placements, want 2", len(got))
	}
	for i, p := range placements {
		if got[i].Name != p.Name || got[i].Workers != p.Workers {
			t.Fatalf("placement %d header mismatch: %+v", i, got[i])
		}
		for v := range p.Owner {
			if got[i].Owner[v] != p.Owner[v] {
				t.Fatalf("placement %q owner[%d] = %d want %d", p.Name, v, got[i].Owner[v], p.Owner[v])
			}
		}
	}
	// a graph-only caller drops the placement section
	g3, _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil || g3.NumVertices() != n {
		t.Fatalf("ReadSnapshot on v2 snapshot: %v", err)
	}
	// no placements -> version-1 bytes -> ReadSnapshot returns nil
	var v1 bytes.Buffer
	if err := WriteSnapshot(&v1, g, nil); err != nil {
		t.Fatal(err)
	}
	if _, ps, err := ReadSnapshot(bytes.NewReader(v1.Bytes())); err != nil || ps != nil {
		t.Fatalf("v1 snapshot: placements=%v err=%v", ps, err)
	}
	// a mis-sized placement must be rejected at write time
	if err := WriteSnapshot(&bytes.Buffer{}, g, []Placement{{Name: "x", Workers: 2, Owner: make([]uint16, 3)}}); err == nil {
		t.Fatal("WriteSnapshot accepted a mis-sized owner vector")
	}
}
