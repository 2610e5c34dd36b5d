package frag

// ScatterPlan is the pre-calculation of the paper's scatter-combine
// channel (§IV-C1, Fig. 5): one source set's edges transposed and sorted
// by destination, split per destination worker. A superstep then
// produces the combined per-destination messages by one gather-reduce
// over Src in run order — no sort, no hashing, no address decoding —
// and because the destination set never changes, the destination index
// lists (Dst) are shipped to their workers once and later frames carry
// only values in the same order.
//
// Runs are ordered by ascending destination local index and, within a
// run, by ascending source local index (the builder is a stable
// counting sort over a CSR), so a non-associative combiner such as a
// float sum reduces in one fixed order on every run of every job.
// Immutable after construction and safe for concurrent readers.
type ScatterPlan struct {
	// Sources lists, ascending, the local vertices owning at least one
	// edge: a superstep in which all of them set a value needs no
	// per-edge freshness check and no presence bitmap.
	Sources []uint32
	// To[d] holds the edges destined to worker d.
	To []ScatterSeg
}

// ScatterSeg is the part of a ScatterPlan destined to one worker.
type ScatterSeg struct {
	Dst []uint32 // unique destination local indices, ascending
	End []uint32 // End[k] is the end of Dst[k]'s run in Src (runs are contiguous from 0)
	Src []uint32 // source local index per edge
}

// Bytes returns the resident size of the plan.
func (p *ScatterPlan) Bytes() int64 {
	b := int64(len(p.Sources))
	for i := range p.To {
		b += int64(len(p.To[i].Dst) + len(p.To[i].End) + len(p.To[i].Src))
	}
	return 4 * b
}

// NewScatterPlan builds the plan of the edges given as a CSR over the
// local sources (offsets has one entry per source plus one; adj holds
// the packed destination addresses) with two counting-sort passes.
// counts[d] is the number of vertices worker d owns.
func NewScatterPlan(counts []int, offsets []uint64, adj []Addr) *ScatterPlan {
	p := &ScatterPlan{To: make([]ScatterSeg, len(counts))}
	// cur[d][l] first counts the edges into (d, l), then becomes the
	// fill cursor of that destination's run
	cur := make([][]uint32, len(counts))
	for d, n := range counts {
		cur[d] = make([]uint32, n)
	}
	for _, a := range adj {
		cur[a.Worker()][a.Local()]++
	}
	for d := range p.To {
		uniq := 0
		for _, c := range cur[d] {
			if c > 0 {
				uniq++
			}
		}
		seg := &p.To[d]
		seg.Dst = make([]uint32, 0, uniq)
		seg.End = make([]uint32, 0, uniq)
		pos := uint32(0)
		for l, c := range cur[d] {
			if c == 0 {
				continue
			}
			cur[d][l] = pos
			pos += c
			seg.Dst = append(seg.Dst, uint32(l))
			seg.End = append(seg.End, pos)
		}
		seg.Src = make([]uint32, pos)
	}
	for li := 0; li+1 < len(offsets); li++ {
		nbrs := adj[offsets[li]:offsets[li+1]]
		if len(nbrs) == 0 {
			continue
		}
		p.Sources = append(p.Sources, uint32(li))
		for _, a := range nbrs {
			c := &cur[a.Worker()][a.Local()]
			p.To[a.Worker()].Src[*c] = uint32(li)
			*c++
		}
	}
	return p
}

// ScatterPlan returns the plan of the fragment's whole adjacency,
// derived on first use and cached on the fragment, so every job running
// on a cached fragment set shares one plan per worker (the catalog is
// charged its bytes through Fragments.DeriveHook). Each worker derives
// only its own fragment's plan, concurrently with its peers.
func (f *Fragment) ScatterPlan() *ScatterPlan {
	f.planOnce.Do(func() {
		f.plan = NewScatterPlan(f.counts, f.offsets, f.adj)
		if f.set.DeriveHook != nil {
			f.set.DeriveHook(f.plan.Bytes())
		}
	})
	return f.plan
}
