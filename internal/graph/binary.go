package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary snapshot format: the CSR arrays dumped verbatim, little-endian.
// Loading a snapshot is a size check plus three bulk reads, so a daemon
// restart skips text parsing and the counting sort of FromEdges.
//
//	magic   "GCSR"           4 bytes
//	version uint32           1 (bare graph) or 2 (graph + placements)
//	flags   uint32           bit0 weighted, bit1 undirected
//	n, m    uint64, uint64   vertex and directed-edge counts
//	offsets (n+1) x uint64
//	adj     m x uint32
//	weights m x int32        present iff weighted
//
// Version 2 appends named vertex placements (owner vectors), so a
// catalog restart also skips re-partitioning — in particular the BFS
// region growing behind the "(P)" locality placements:
//
//	placements uint32
//	per placement:
//	  nameLen uint16, name bytes
//	  workers uint32
//	  owner   n x uint16
//
// Version-1 snapshots remain readable; WriteSnapshot without placements
// still writes version 1, so older readers keep working.

const (
	binaryMagic    = "GCSR"
	binaryVersion  = 1
	binaryVersion2 = 2

	flagWeighted   = 1 << 0
	flagUndirected = 1 << 1
)

// Placement is a named owner vector embedded in a version-2 snapshot:
// Owner[v] is the worker owning vertex v under a Workers-way placement.
type Placement struct {
	Name    string
	Workers int
	Owner   []uint16
}

// SnapshotExt is the conventional file extension for binary snapshots;
// the catalog looks for "<path>.bin" next to a text edge list.
const SnapshotExt = ".bin"

// maxSnapshotEntries bounds the array sizes a snapshot header may claim,
// guarding allocation against corrupt or hostile files.
const maxSnapshotEntries = 1 << 33

// capHint bounds the initial capacity of an array allocated from a
// header-declared count: big enough that honest snapshots never
// reallocate more than a handful of times, small enough that a hostile
// count cannot allocate memory the stream never backs.
func capHint(n uint64) uint64 {
	const limit = 1 << 16
	if n > limit {
		return limit
	}
	return n
}

// WriteSnapshot writes g as a binary snapshot, embedding the given
// placements (version 2); with no placements it writes the version-1
// layout.
func WriteSnapshot(w io.Writer, g *Graph, placements []Placement) error {
	for _, p := range placements {
		if len(p.Owner) != g.NumVertices() {
			return fmt.Errorf("graph: placement %q has %d owners for %d vertices", p.Name, len(p.Owner), g.NumVertices())
		}
		if p.Name == "" || len(p.Name) > 1<<16-1 {
			return fmt.Errorf("graph: bad placement name %q", p.Name)
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var flags uint32
	if g.Weighted() {
		flags |= flagWeighted
	}
	if g.Undirected {
		flags |= flagUndirected
	}
	version := uint32(binaryVersion)
	if len(placements) > 0 {
		version = binaryVersion2
	}
	var head [24]byte
	binary.LittleEndian.PutUint32(head[0:], version)
	binary.LittleEndian.PutUint32(head[4:], flags)
	binary.LittleEndian.PutUint64(head[8:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(head[16:], uint64(g.NumEdges()))
	if _, err := bw.Write(head[:]); err != nil {
		return err
	}
	var scratch [8]byte
	for _, o := range g.Offsets {
		binary.LittleEndian.PutUint64(scratch[:], o)
		if _, err := bw.Write(scratch[:8]); err != nil {
			return err
		}
	}
	for _, v := range g.Adj {
		binary.LittleEndian.PutUint32(scratch[:], v)
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
	}
	if g.Weighted() {
		for _, wv := range g.Weights {
			binary.LittleEndian.PutUint32(scratch[:], uint32(wv))
			if _, err := bw.Write(scratch[:4]); err != nil {
				return err
			}
		}
	}
	if version == binaryVersion2 {
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(placements)))
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
		for _, p := range placements {
			binary.LittleEndian.PutUint16(scratch[:], uint16(len(p.Name)))
			if _, err := bw.Write(scratch[:2]); err != nil {
				return err
			}
			if _, err := bw.WriteString(p.Name); err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(scratch[:], uint32(p.Workers))
			if _, err := bw.Write(scratch[:4]); err != nil {
				return err
			}
			for _, o := range p.Owner {
				binary.LittleEndian.PutUint16(scratch[:], o)
				if _, err := bw.Write(scratch[:2]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadSnapshot parses a snapshot and returns the graph plus any
// embedded placements (nil for version-1 snapshots).
func ReadSnapshot(r io.Reader) (*Graph, []Placement, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var head [28]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, nil, fmt.Errorf("graph: bad snapshot header: %w", err)
	}
	if string(head[:4]) != binaryMagic {
		return nil, nil, fmt.Errorf("graph: bad snapshot magic %q", head[:4])
	}
	version := binary.LittleEndian.Uint32(head[4:])
	if version != binaryVersion && version != binaryVersion2 {
		return nil, nil, fmt.Errorf("graph: unsupported snapshot version %d", version)
	}
	flags := binary.LittleEndian.Uint32(head[8:])
	n := binary.LittleEndian.Uint64(head[12:])
	m := binary.LittleEndian.Uint64(head[20:])
	if n >= maxSnapshotEntries || m > maxSnapshotEntries {
		return nil, nil, fmt.Errorf("graph: snapshot claims implausible sizes n=%d m=%d", n, m)
	}
	// Array capacities are grown as the data actually arrives (capped
	// initial allocation): a corrupt or hostile header claiming huge
	// counts fails with a truncation error once the stream ends instead
	// of driving a giant up-front allocation.
	g := &Graph{
		Offsets:    make([]uint64, 0, capHint(n+1)),
		Adj:        make([]VertexID, 0, capHint(m)),
		Undirected: flags&flagUndirected != 0,
	}
	var scratch [8]byte
	for i := uint64(0); i <= n; i++ {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return nil, nil, fmt.Errorf("graph: truncated snapshot offsets: %w", err)
		}
		off := binary.LittleEndian.Uint64(scratch[:])
		if i > 0 && off < g.Offsets[i-1] {
			return nil, nil, fmt.Errorf("graph: corrupt snapshot: offsets not monotone at vertex %d", i)
		}
		g.Offsets = append(g.Offsets, off)
	}
	if g.Offsets[0] != 0 || g.Offsets[n] != m {
		return nil, nil, fmt.Errorf("graph: corrupt snapshot offsets (first=%d last=%d m=%d)", g.Offsets[0], g.Offsets[n], m)
	}
	for i := uint64(0); i < m; i++ {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return nil, nil, fmt.Errorf("graph: truncated snapshot adjacency: %w", err)
		}
		v := binary.LittleEndian.Uint32(scratch[:])
		if uint64(v) >= n {
			return nil, nil, fmt.Errorf("graph: corrupt snapshot: vertex %d out of range", v)
		}
		g.Adj = append(g.Adj, v)
	}
	if flags&flagWeighted != 0 {
		g.Weights = make([]int32, 0, capHint(m))
		for i := uint64(0); i < m; i++ {
			if _, err := io.ReadFull(br, scratch[:4]); err != nil {
				return nil, nil, fmt.Errorf("graph: truncated snapshot weights: %w", err)
			}
			g.Weights = append(g.Weights, int32(binary.LittleEndian.Uint32(scratch[:])))
		}
	}
	if version < binaryVersion2 {
		return g, nil, nil
	}
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, nil, fmt.Errorf("graph: truncated snapshot placement count: %w", err)
	}
	count := binary.LittleEndian.Uint32(scratch[:])
	if count > 64 {
		return nil, nil, fmt.Errorf("graph: snapshot claims implausible placement count %d", count)
	}
	placements := make([]Placement, 0, count)
	for pi := uint32(0); pi < count; pi++ {
		if _, err := io.ReadFull(br, scratch[:2]); err != nil {
			return nil, nil, fmt.Errorf("graph: truncated snapshot placement name: %w", err)
		}
		nameLen := binary.LittleEndian.Uint16(scratch[:])
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, nil, fmt.Errorf("graph: truncated snapshot placement name: %w", err)
		}
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return nil, nil, fmt.Errorf("graph: truncated snapshot placement workers: %w", err)
		}
		p := Placement{
			Name:    string(name),
			Workers: int(binary.LittleEndian.Uint32(scratch[:])),
			Owner:   make([]uint16, 0, capHint(n)),
		}
		for i := uint64(0); i < n; i++ {
			if _, err := io.ReadFull(br, scratch[:2]); err != nil {
				return nil, nil, fmt.Errorf("graph: truncated snapshot placement %q: %w", p.Name, err)
			}
			p.Owner = append(p.Owner, binary.LittleEndian.Uint16(scratch[:]))
		}
		placements = append(placements, p)
	}
	return g, placements, nil
}

// WriteSnapshotFile writes a snapshot with embedded placements to path
// atomically (tmp + rename).
func WriteSnapshotFile(path string, g *Graph, placements []Placement) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(f, g, placements); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadSnapshotFile reads a snapshot plus embedded placements from path.
func ReadSnapshotFile(path string) (*Graph, []Placement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
