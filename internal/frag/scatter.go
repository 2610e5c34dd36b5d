package frag

// ScatterPlan is the pre-calculation of the paper's scatter-combine
// channel (§IV-C1, Fig. 5): one source set's edges transposed and sorted
// by destination, split per destination worker. A superstep then
// produces the combined per-destination messages by one gather-reduce
// over Src in storage order — no sort, no hashing, no address decoding —
// and because the destination set never changes, the destination index
// lists (Dst) are shipped to their workers once and later frames carry
// only values in the same order.
//
// A destination's sources form a run, ascending by source local index
// (the builder is a stable counting sort over a CSR), so a
// non-associative combiner such as a float sum reduces every destination
// in one fixed order on every run of every job. The runs of a segment
// are stored for a kernel that folds Lanes of them in lockstep; see
// ScatterSeg. Immutable after construction and safe for concurrent
// readers.
type ScatterPlan struct {
	// Sources lists, ascending, the local vertices owning at least one
	// edge: a superstep in which all of them set a value needs no
	// per-edge freshness check and no presence bitmap.
	Sources []uint32
	// To[d] holds the edges destined to worker d.
	To []ScatterSeg
}

// Lanes is the number of runs a ScatterGroup holds, i.e. the number of
// independent combine chains the fold kernels keep in flight. One chain
// is bound by the latency of its dependent add (~4 cycles an edge).
// Chosen by measurement: eight lanes were ~15 % faster than four on the
// kernel alone and no different on a whole superstep, at twice the
// kernel text (channel's foldSum and foldMin spell out one loop per
// number of live lanes).
const Lanes = 4

// ScatterSeg is the part of a ScatterPlan destined to one worker.
//
// Dst is the handshake list and the frame order. Src is laid out for the
// kernel instead (the sliced-ELLPACK layout of sparse matrix–vector
// products): runs are ranked by non-increasing length — stably, so equal
// lengths keep ascending destination order — and taken Lanes at a time.
// Lanes that sit in one group are length-matched, which is what keeps all
// of them busy: under a skewed degree distribution adjacent destinations
// have unrelated in-degrees (1 … thousands within one segment), ranked
// neighbours nearly equal ones. Within a group Src is column-major:
// column j holds the j-th source of every run longer than j, in lane
// order, so the kernel reads Src front to back and each destination's
// combine sequence is still its sources in ascending order — grouping
// changes which destinations are reduced side by side, never the order
// or the association of one destination's reduction.
type ScatterSeg struct {
	Dst    []uint32       // unique destination local indices, ascending
	Groups []ScatterGroup // the runs, Lanes at a time, longest first
	Src    []uint32       // source local index per edge, group by group, column-major
}

// ScatterGroup is Lanes runs folded in lockstep.
type ScatterGroup struct {
	// Len holds the run lengths, non-increasing within the group and from
	// group to group. Only a segment's last group can have fewer than
	// Lanes runs; its missing lanes have Len 0.
	Len [Lanes]uint32
	// Pos[i] is the position in Dst (and in a frame) of lane i's
	// destination.
	Pos [Lanes]uint32
}

// Bytes returns the resident size of the plan.
func (p *ScatterPlan) Bytes() int64 {
	b := int64(len(p.Sources))
	for i := range p.To {
		b += int64(len(p.To[i].Dst) + 2*Lanes*len(p.To[i].Groups) + len(p.To[i].Src))
	}
	return 4 * b
}

// NewScatterPlan builds the plan of the edges given as a CSR over the
// local sources (offsets has one entry per source plus one; adj holds
// the packed destination addresses) with two counting-sort passes over
// the edges: run lengths are known after the first, so the second puts
// every edge at its final place in the lane layout. counts[d] is the
// number of vertices worker d owns.
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
	var rank []uint32 // rank[c]: the next rank a run of length c takes
	for d := range p.To {
		uniq, longest := 0, uint32(0)
		for _, c := range cur[d] {
			if c > 0 {
				uniq++
				longest = max(longest, c)
			}
		}
		if uniq == 0 {
			continue
		}
		rank = append(rank[:0], make([]uint32, longest+1)...)
		for _, c := range cur[d] {
			rank[c]++
		}
		seg := &p.To[d]
		seg.Dst = make([]uint32, 0, uniq)
		seg.Groups = make([]ScatterGroup, (uniq+Lanes-1)/Lanes)
		// the histogram alone fixes every group's lengths
		r, edges := uint32(0), uint32(0)
		for c := longest; c > 0; c-- {
			n := rank[c]
			rank[c] = r
			edges += c * n
			for ; n > 0; n-- {
				seg.Groups[r/Lanes].Len[r%Lanes] = c
				r++
			}
		}
		seg.Src = make([]uint32, edges)
		// Until the fill pass overwrites it, Src[i] is the distance from i
		// to the same lane's slot in the next column — the number of lanes
		// that reach i's column — and until its run claims it, Pos[lane] is
		// the lane's first slot.
		i := uint32(0)
		for gi := range seg.Groups {
			g := &seg.Groups[gi]
			for lane := range g.Pos {
				g.Pos[lane] = i + uint32(lane)
			}
			j := uint32(0)
			for live := uint32(Lanes); live > 0; live-- {
				for ; j < g.Len[live-1]; j++ {
					for end := i + live; i < end; i++ {
						seg.Src[i] = live
					}
				}
			}
		}
		for l, c := range cur[d] {
			if c == 0 {
				continue
			}
			g := &seg.Groups[rank[c]/Lanes]
			lane := rank[c] % Lanes
			rank[c]++
			cur[d][l], g.Pos[lane] = g.Pos[lane], uint32(len(seg.Dst))
			seg.Dst = append(seg.Dst, uint32(l))
		}
	}
	sources := 0
	for li := 0; li+1 < len(offsets); li++ {
		if offsets[li] < offsets[li+1] {
			sources++
		}
	}
	p.Sources = make([]uint32, 0, sources) // exact, like Dst: Bytes() is what stays resident
	for li := 0; li+1 < len(offsets); li++ {
		nbrs := adj[offsets[li]:offsets[li+1]]
		if len(nbrs) == 0 {
			continue
		}
		p.Sources = append(p.Sources, uint32(li))
		for _, a := range nbrs {
			c := &cur[a.Worker()][a.Local()]
			s := &p.To[a.Worker()].Src[*c]
			*c += *s
			*s = uint32(li)
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
