package live

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
)

// View is one (placement, orientation) combination of an epoch's graph:
// the CSR, its partition, the pre-resolved shared-nothing fragments
// every job runs on, and the placement's directed edge-cut fraction.
// Views are immutable once built and shared by every job that asks for
// the same combination.
type View struct {
	Placement  string
	Undirected bool
	Graph      *graph.Graph
	Part       *partition.Partition
	Frags      *frag.Fragments
	EdgeCut    float64

	retireMu sync.Mutex
	retired  bool
	onRetire []func()
}

// OnRetire registers f to run once when the view is retired — its epoch
// was freed, or its static dataset was evicted from (or closed with) the
// catalog — so whoever keeps state derived from the view outside the
// heap (the job manager's worker export file) can drop it. A view that
// is already retired runs f at once. f must not call back into the epoch.
func (v *View) OnRetire(f func()) {
	v.retireMu.Lock()
	if !v.retired {
		v.onRetire = append(v.onRetire, f)
		v.retireMu.Unlock()
		return
	}
	v.retireMu.Unlock()
	f()
}

func (v *View) retire() {
	v.retireMu.Lock()
	hooks := v.onRetire
	v.retired, v.onRetire = true, nil
	v.retireMu.Unlock()
	for _, f := range hooks {
		f()
	}
}

type viewKey struct {
	placement  string
	undirected bool
}

// viewSlot is the build-once cell of one view. The pointer is atomic so
// monitoring snapshots (BuiltViews) can observe finished views without
// synchronizing against an in-flight build.
type viewSlot struct {
	once sync.Once
	view atomic.Pointer[View]
	err  error
}

// EpochConfig configures a standalone epoch (the catalog uses one per
// immutable dataset; live graphs create their own internally).
type EpochConfig struct {
	// Workers is the simulated cluster size views are partitioned for
	// (<= 0 selects 8).
	Workers int
	// Preset partitions, keyed by placement name, are used instead of
	// re-partitioning when their shape matches (snapshot-embedded owner
	// vectors).
	Preset map[string]*partition.Partition
	// OnBytes, if set, is called with the resident-byte delta whenever
	// the epoch derives something (views, fragments, transposes, the
	// undirected orientation) and once with the negated total when the
	// epoch is freed. The graph's own bytes are charged at construction.
	OnBytes func(delta int64)
	// OnFree, if set, runs when a superseded epoch's last pin is
	// released and its memory is dropped.
	OnFree func(seq uint64, bytes int64)
}

// Epoch is one immutable snapshot of a graph: a CSR plus its lazily
// derived views. Readers pin an epoch (Pin/Release) for the duration of
// a computation; a superseded epoch is freed when its last pin is
// released, so a running job never observes a torn graph and retired
// snapshots do not accumulate.
type Epoch struct {
	seq     uint64
	workers int
	preset  map[string]*partition.Partition

	undOnce  sync.Once
	undGraph *graph.Graph

	mu         sync.Mutex
	graph      *graph.Graph // nil once freed
	views      map[viewKey]*viewSlot
	onBytes    func(int64)
	onFree     func(uint64, int64)
	bytes      int64
	refs       int
	superseded bool
	freed      bool
	retired    bool // views built from now on are born retired
}

// NewEpoch wraps g as epoch seq. The graph must not be mutated
// afterwards; its CSR bytes are charged through cfg.OnBytes.
func NewEpoch(seq uint64, g *graph.Graph, cfg EpochConfig) *Epoch {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	e := &Epoch{
		seq:     seq,
		workers: workers,
		preset:  cfg.Preset,
		graph:   g,
		views:   make(map[viewKey]*viewSlot),
		onBytes: cfg.OnBytes,
		onFree:  cfg.OnFree,
	}
	e.charge(graphBytes(g))
	return e
}

// Seq returns the epoch's sequence number (1 is the load-time base).
func (e *Epoch) Seq() uint64 { return e.seq }

// Graph returns the epoch's CSR. Valid while the epoch is current or
// pinned; a freed epoch returns nil.
func (e *Epoch) Graph() *graph.Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.graph
}

// Bytes returns the approximate resident size of the epoch including
// all derived views.
func (e *Epoch) Bytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bytes
}

// SetOnBytes installs the byte-accounting hook after construction (the
// catalog charges an entry's initial epoch to its base size and only
// then routes deltas through the LRU budget). Already-accumulated bytes
// are not re-charged.
func (e *Epoch) SetOnBytes(f func(delta int64)) {
	e.mu.Lock()
	e.onBytes = f
	e.mu.Unlock()
}

// charge accumulates b into the epoch's resident size and forwards it
// to the accounting hook (outside the lock: the hook may take other
// locks, e.g. the catalog's).
func (e *Epoch) charge(b int64) {
	e.mu.Lock()
	e.bytes += b
	hook := e.onBytes
	e.mu.Unlock()
	if hook != nil {
		hook(b)
	}
}

// Pin takes a reference on the epoch: its graph and views stay resident
// until the matching Release, even if a newer epoch is published
// meanwhile. Returns the receiver for chaining.
func (e *Epoch) Pin() *Epoch {
	e.mu.Lock()
	e.refs++
	e.mu.Unlock()
	return e
}

// Release drops a pin. The last release of a superseded epoch frees it.
func (e *Epoch) Release() {
	e.mu.Lock()
	if e.refs <= 0 {
		e.mu.Unlock()
		panic("live: Release without matching Pin")
	}
	e.refs--
	doFree := e.superseded && e.refs == 0 && !e.freed
	if doFree {
		e.freed = true
	}
	e.mu.Unlock()
	if doFree {
		e.free()
	}
}

// supersede marks the epoch as replaced by a newer one; it is freed now
// if unpinned, otherwise when the last pin is released.
func (e *Epoch) supersede() {
	e.mu.Lock()
	e.superseded = true
	doFree := e.refs == 0 && !e.freed
	if doFree {
		e.freed = true
	}
	e.mu.Unlock()
	if doFree {
		e.free()
	}
}

// Retire retires the epoch's views (see View.OnRetire) without freeing
// the epoch: the catalog calls it when a static dataset is evicted, so
// jobs that still hold the entry finish on resident memory while state
// derived from the views elsewhere is dropped.
func (e *Epoch) Retire() {
	e.mu.Lock()
	e.retired = true
	slots := make([]*viewSlot, 0, len(e.views))
	for _, s := range e.views {
		slots = append(slots, s)
	}
	e.mu.Unlock()
	for _, s := range slots {
		if v := s.view.Load(); v != nil {
			v.retire()
		}
	}
}

// free drops the epoch's references so the GC can reclaim them,
// un-charges its bytes, and fires the retirement hooks.
func (e *Epoch) free() {
	e.Retire()
	e.mu.Lock()
	b := e.bytes
	e.bytes = 0
	e.graph = nil
	e.views = nil
	e.undGraph = nil
	e.preset = nil
	onBytes, onFree := e.onBytes, e.onFree
	e.mu.Unlock()
	if onBytes != nil {
		onBytes(-b)
	}
	if onFree != nil {
		onFree(e.seq, b)
	}
}

// undirected returns the both-orientations graph of the epoch, deriving
// and caching it on first use.
func (e *Epoch) undirected() *graph.Graph {
	g := e.Graph()
	if g.Undirected {
		return g
	}
	e.undOnce.Do(func() {
		e.undGraph = graph.Undirectify(g)
		e.charge(graphBytes(e.undGraph))
	})
	return e.undGraph
}

// View returns the epoch under the named placement ("" or "hash",
// "greedy") and orientation, building the partition and fragments
// exactly once per combination. The caller must hold a pin (or the
// epoch must still be current).
func (e *Epoch) View(placement string, undirected bool) (*View, error) {
	if placement == "" {
		placement = partition.PlacementHash
	}
	e.mu.Lock()
	if e.freed {
		e.mu.Unlock()
		return nil, fmt.Errorf("live: epoch %d is retired", e.seq)
	}
	if e.graph.Undirected {
		undirected = false // base already stores both orientations
	}
	key := viewKey{placement: placement, undirected: undirected}
	slot, ok := e.views[key]
	if !ok {
		slot = &viewSlot{}
		e.views[key] = slot
	}
	e.mu.Unlock()
	slot.once.Do(func() {
		g := e.Graph()
		if undirected {
			g = e.undirected()
		}
		v, err := e.buildView(placement, undirected, g)
		slot.err = err
		if err != nil {
			return
		}
		slot.view.Store(v)
		// a Retire that ran before the Store could not see this view
		e.mu.Lock()
		retired := e.retired
		e.mu.Unlock()
		if retired {
			v.retire()
		}
	})
	return slot.view.Load(), slot.err
}

// buildView constructs one (placement, orientation) view of graph g:
// partition (preset when its shape matches), fragments built in
// parallel, edge cut. The view's resident bytes are charged as a
// derivation.
func (e *Epoch) buildView(placement string, undirected bool, g *graph.Graph) (*View, error) {
	part := e.presetFor(placement, g)
	if part == nil {
		var err error
		part, err = partition.ByName(placement, g, e.workers)
		if err != nil {
			return nil, err
		}
	}
	fs := frag.Build(g, part)
	fs.DeriveHook = e.charge
	v := &View{
		Placement:  placement,
		Undirected: undirected,
		Graph:      g,
		Part:       part,
		Frags:      fs,
		EdgeCut:    partition.EdgeCut(g, part),
	}
	e.charge(fs.Bytes() + partitionBytes(g))
	return v, nil
}

// presetFor returns a preset partition for the placement if one matches
// this epoch's worker count and g's vertex count.
func (e *Epoch) presetFor(placement string, g *graph.Graph) *partition.Partition {
	p, ok := e.preset[placement]
	if !ok || p.NumWorkers() != e.workers || p.NumVertices() != g.NumVertices() {
		return nil
	}
	return p
}

// BuiltViews returns the views built so far, sorted by (placement,
// orientation). A compaction pre-warms the successor epoch with the
// same combinations; the dataset detail endpoint lists them.
func (e *Epoch) BuiltViews() []*View {
	e.mu.Lock()
	slots := make([]*viewSlot, 0, len(e.views))
	for _, s := range e.views {
		slots = append(slots, s)
	}
	e.mu.Unlock()
	out := make([]*View, 0, len(slots))
	for _, s := range slots {
		// a slot mid-build is skipped rather than waited on: BuiltViews
		// is a monitoring snapshot, not a synchronization point
		if v := s.view.Load(); v != nil {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Placement != out[j].Placement {
			return out[i].Placement < out[j].Placement
		}
		return !out[i].Undirected && out[j].Undirected
	})
	return out
}

// graphBytes approximates the resident size of a graph's CSR arrays.
func graphBytes(g *graph.Graph) int64 {
	return int64(len(g.Offsets))*8 + int64(len(g.Adj))*4 + int64(len(g.Weights))*4
}

// partitionBytes approximates the resident size of one partition of g
// (owner vector, local indices, per-worker vertex lists ~10 bytes per
// vertex).
func partitionBytes(g *graph.Graph) int64 {
	return int64(g.NumVertices()) * 10
}
