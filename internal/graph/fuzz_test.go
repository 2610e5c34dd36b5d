package graph

import (
	"bytes"
	"testing"
)

// FuzzReadSnapshot pins the wire-surface contract of the binary
// snapshot reader: arbitrary input must produce (graph, error) — never
// a panic, and never an allocation driven by a hostile header rather
// than actual stream content. Anything the reader accepts must be
// internally consistent enough to round-trip.
func FuzzReadSnapshot(f *testing.F) {
	// seed with a real snapshot and a few truncations/corruptions of it
	g := Undirectify(RMAT(5, 3, 7, RMATOptions{Weighted: true, MaxWeight: 9, NoSelfLoops: true}))
	var buf bytes.Buffer
	hash := make([]uint16, g.NumVertices())
	for i := range hash {
		hash[i] = uint16(i % 3)
	}
	if err := WriteSnapshot(&buf, g, []Placement{{Name: "hash", Workers: 3, Owner: hash}}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:30])
	corrupt := append([]byte(nil), valid...)
	corrupt[12] ^= 0xff // vertex count
	f.Add(corrupt)
	f.Add([]byte("GCSR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, placements, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// accepted input must describe a structurally valid CSR
		n := g.NumVertices()
		if len(g.Offsets) != n+1 {
			t.Fatalf("accepted snapshot with %d offsets for %d vertices", len(g.Offsets), n)
		}
		for _, v := range g.Adj {
			if int(v) >= n {
				t.Fatalf("accepted snapshot with out-of-range vertex %d", v)
			}
		}
		if g.Weights != nil && len(g.Weights) != len(g.Adj) {
			t.Fatalf("accepted snapshot with %d weights for %d edges", len(g.Weights), len(g.Adj))
		}
		for _, p := range placements {
			if len(p.Owner) != n {
				t.Fatalf("accepted placement %q with %d owners for %d vertices", p.Name, len(p.Owner), n)
			}
		}
		// and survive a write/read round trip
		var rt bytes.Buffer
		if err := WriteSnapshot(&rt, g, nil); err != nil {
			t.Fatalf("round-trip write: %v", err)
		}
		if _, _, err := ReadSnapshot(bytes.NewReader(rt.Bytes())); err != nil {
			t.Fatalf("round-trip read: %v", err)
		}
	})
}
