// Package catalog is the shared graph store of the job service: named
// dataset specs (edge-list files or generator expressions) loaded at
// most once, cached as epoch-wrapped graphs plus their derived views,
// and shared by every job that names the dataset.
//
// A view is one (orientation, placement) combination of the dataset:
// the graph, its partition, and the pre-resolved per-worker fragments
// (internal/frag) every job runs on. View construction lives on
// internal/live's Epoch — a static dataset is a single never-superseded
// epoch, a mutable one (Spec.Mutable) is a live.Graph whose compactor
// publishes new epochs as edge batches land. Views are built lazily,
// exactly once each per epoch (the default hash view eagerly at load
// time, fragments in parallel), and charged against the catalog's byte
// budget — so the budget covers every resident epoch, not just the
// base graphs.
//
// Loading is singleflight — concurrent Get calls for a cold dataset
// block on one loader goroutine — and the resident set is bounded by an
// approximate byte budget with least-recently-used eviction. File-backed
// specs prefer a binary snapshot ("<path>.bin", graph.WriteSnapshot
// layout) over re-parsing the text edge list; version-2 snapshots embed
// named owner vectors, which lets a restart skip re-partitioning (the
// greedy BFS in particular).
package catalog

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/partition"
)

// Spec declares a dataset. Exactly one of Path or Gen must be set.
type Spec struct {
	Name string `json:"name"`
	// Path is an edge-list file (graph.ReadEdgeList format) or a binary
	// snapshot. A "<path>.bin" sibling, when present, is preferred.
	Path string `json:"path,omitempty"`
	// Gen is a generator expression, e.g. "rmat:scale=12,ef=8,seed=1"
	// (see ParseGen for the full grammar).
	Gen string `json:"gen,omitempty"`
	// Undirected runs the loaded graph through graph.Undirectify.
	Undirected bool `json:"undirected,omitempty"`
	// Placement is the default vertex placement for jobs on this dataset
	// ("hash" when empty, or "greedy" — the paper's "(P)" locality
	// placement). Individual jobs may override it.
	Placement string `json:"placement,omitempty"`
	// Mutable registers the dataset as a live graph: edge batches may
	// be ingested after load, and jobs run against epoch-versioned
	// snapshots. Mutable datasets keep a directed base (undirected
	// views are derived per epoch), so Undirected must be false.
	Mutable bool `json:"mutable,omitempty"`
}

// View is one (orientation, placement) combination of a dataset; the
// construction (partition, shared-nothing fragments, edge cut) lives on
// internal/live's Epoch and is shared between static and live datasets.
type View = live.View

// Entry is a loaded dataset: the load-time base graph and its default
// hash view for introspection, plus the epoch holding every derived
// view — a single static epoch, or the current epoch of a live graph.
type Entry struct {
	Spec Spec
	// Graph and Part are the static base graph and its default hash
	// partition. Both are nil for live datasets: pinning them on the
	// entry would keep epoch 1's CSR resident (and uncounted) after the
	// epoch retires — use Live() or CurrentGraph instead.
	Graph    *graph.Graph
	Part     *partition.Partition
	LoadedAt time.Time

	cat     *Catalog
	workers int
	bytes   int64 // guarded by cat.mu once the entry is published

	epoch     *live.Epoch // static datasets: the single, never-superseded epoch
	liveGraph *live.Graph // mutable datasets
	closeOnce sync.Once
}

// Bytes returns the approximate resident size of the entry, including
// all resident epochs, derived views and fragments.
func (e *Entry) Bytes() int64 {
	e.cat.mu.Lock()
	defer e.cat.mu.Unlock()
	return e.bytes
}

// Live returns the entry's mutable graph, or nil for a static dataset.
func (e *Entry) Live() *live.Graph { return e.liveGraph }

// View returns the dataset under the named placement ("" or "hash",
// "greedy") and orientation, building the partition and fragments
// exactly once per (epoch, combination). For live datasets this reads
// the current epoch transiently; jobs that must hold one snapshot for
// a whole run use AcquireView instead.
func (e *Entry) View(placement string, undirected bool) (*View, error) {
	if e.liveGraph != nil {
		ep := e.liveGraph.Pin()
		defer ep.Release()
		return ep.View(placement, undirected)
	}
	return e.epoch.View(placement, undirected)
}

// AcquireView pins the dataset's current epoch and returns its
// (placement, orientation) view, a release closure the caller must run
// when the computation finishes, and the epoch sequence number (0 for
// static datasets, whose single epoch needs no pinning). Until release,
// the snapshot stays resident even if newer epochs are published.
func (e *Entry) AcquireView(placement string, undirected bool) (*View, func(), uint64, error) {
	if e.liveGraph == nil {
		v, err := e.epoch.View(placement, undirected)
		return v, func() {}, 0, err
	}
	ep := e.liveGraph.Pin()
	v, err := ep.View(placement, undirected)
	if err != nil {
		ep.Release()
		return nil, nil, 0, err
	}
	return v, ep.Release, ep.Seq(), nil
}

// Views lists the views materialized so far on the entry's current
// epoch.
func (e *Entry) Views() []*View {
	if e.liveGraph != nil {
		ep := e.liveGraph.Pin()
		defer ep.Release()
		return ep.BuiltViews()
	}
	return e.epoch.BuiltViews()
}

// CurrentGraph returns the graph jobs would run on right now (the
// current epoch's CSR for live datasets). The returned CSR stays valid
// while the caller holds it, but for live datasets it may already be a
// superseded epoch by the time it is read — fine for introspection, not
// for consistency-critical reads (pin an epoch for those).
func (e *Entry) CurrentGraph() *graph.Graph {
	if e.liveGraph != nil {
		ep := e.liveGraph.Pin()
		defer ep.Release()
		return ep.Graph()
	}
	return e.Graph
}

// close releases background resources (the live compactor) and, for a
// static dataset, retires its views: the entry is leaving the catalog,
// so nothing will hand them out again. Idempotent.
func (e *Entry) close() {
	e.closeOnce.Do(func() {
		if e.liveGraph != nil {
			e.liveGraph.Close()
		} else {
			e.epoch.Retire()
		}
	})
}

// Info is the List/JSON view of a dataset. For live datasets the
// vertex/edge counts and epoch describe the current epoch.
type Info struct {
	Spec
	Loaded   bool   `json:"loaded"`
	Vertices int    `json:"vertices,omitempty"`
	Edges    int    `json:"edges,omitempty"`
	Weighted bool   `json:"weighted,omitempty"`
	IsUndir  bool   `json:"is_undirected,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// ViewInfo describes one materialized view in the detail endpoint.
type ViewInfo struct {
	Placement  string  `json:"placement"`
	Undirected bool    `json:"undirected,omitempty"`
	EdgeCut    float64 `json:"edge_cut"`
}

// Detail is the full introspection payload of one dataset.
type Detail struct {
	Info
	Workers int         `json:"workers,omitempty"`
	Views   []ViewInfo  `json:"views,omitempty"`
	Live    *live.Stats `json:"live,omitempty"`
}

// Stats summarizes catalog activity.
type Stats struct {
	Datasets  int   `json:"datasets"`
	Loaded    int   `json:"loaded"`
	Loads     int64 `json:"loads"`
	Hits      int64 `json:"hits"`
	Evictions int64 `json:"evictions"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes,omitempty"`
}

// Catalog is safe for concurrent use.
type Catalog struct {
	workers       int
	maxBytes      int64
	maxDeltaOps   int // live compaction thresholds, applied per dataset
	maxDeltaBatch int

	mu      sync.Mutex
	specs   map[string]Spec
	order   []string
	entries map[string]*slot
	clock   int64 // LRU stamp source
	closed  bool

	loads, hits, evictions int64
}

// Option tweaks a Catalog.
type Option func(*Catalog)

// WithCompaction sets the live-dataset compaction thresholds: a
// background compaction starts once a delta log holds maxOps pending
// operations or maxBatches pending batches (<= 0 keeps the live
// package defaults).
func WithCompaction(maxOps, maxBatches int) Option {
	return func(c *Catalog) {
		c.maxDeltaOps = maxOps
		c.maxDeltaBatch = maxBatches
	}
}

// slot is the singleflight cell for one dataset.
type slot struct {
	done     chan struct{} // closed when the load finishes
	entry    *Entry        // set on success
	err      error         // set on failure
	lastUsed int64
}

// New creates a catalog partitioning graphs across workers simulated
// nodes. maxBytes bounds the approximate resident graph bytes (0 =
// unlimited); the most recently used entries are kept. workers <= 0
// selects the default of 8; a count beyond the partition's
// representable range is kept as-is and surfaces as a loud per-load
// partitioning error rather than a silently substituted topology.
func New(workers int, maxBytes int64, opts ...Option) *Catalog {
	if workers <= 0 {
		workers = 8
	}
	c := &Catalog{
		workers:  workers,
		maxBytes: maxBytes,
		specs:    make(map[string]Spec),
		entries:  make(map[string]*slot),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Close shuts down background resources of every loaded entry (live
// compactors). Further Get calls fail; pinned epochs remain readable
// until released.
func (c *Catalog) Close() {
	c.mu.Lock()
	c.closed = true
	var ents []*Entry
	for _, s := range c.entries {
		if s.entry != nil {
			ents = append(ents, s.entry)
		}
	}
	c.mu.Unlock()
	for _, e := range ents {
		e.close()
	}
}

// Register adds a dataset spec. Re-registering an existing name is an
// error (the immutable cache would go stale).
func (c *Catalog) Register(spec Spec) error {
	if spec.Name == "" {
		return fmt.Errorf("catalog: dataset name is required")
	}
	if (spec.Path == "") == (spec.Gen == "") {
		return fmt.Errorf("catalog: dataset %q: exactly one of path or gen must be set", spec.Name)
	}
	if spec.Gen != "" {
		if _, err := ParseGen(spec.Gen); err != nil {
			return fmt.Errorf("catalog: dataset %q: %w", spec.Name, err)
		}
	}
	switch spec.Placement {
	case "", partition.PlacementHash, partition.PlacementGreedy:
	default:
		return fmt.Errorf("catalog: dataset %q: unknown placement %q", spec.Name, spec.Placement)
	}
	if spec.Mutable && spec.Undirected {
		return fmt.Errorf("catalog: dataset %q: mutable datasets keep a directed base (undirected views are derived per epoch)", spec.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("catalog: catalog is closed")
	}
	if _, ok := c.specs[spec.Name]; ok {
		return fmt.Errorf("catalog: dataset %q already registered", spec.Name)
	}
	c.specs[spec.Name] = spec
	c.order = append(c.order, spec.Name)
	return nil
}

// Has reports whether name is a registered dataset.
func (c *Catalog) Has(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.specs[name]
	return ok
}

// SpecOf returns the registered spec for name without loading anything
// — the ingest endpoint rejects immutable datasets from the spec alone,
// before paying for a load.
func (c *Catalog) SpecOf(name string) (Spec, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	spec, ok := c.specs[name]
	return spec, ok
}

// Get returns the loaded entry for name, loading it exactly once no
// matter how many goroutines ask concurrently. A failed load is not
// cached: the next Get retries.
func (c *Catalog) Get(name string) (*Entry, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("catalog: catalog is closed")
	}
	spec, ok := c.specs[name]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("catalog: unknown dataset %q", name)
	}
	if s, ok := c.entries[name]; ok {
		c.clock++
		s.lastUsed = c.clock
		c.mu.Unlock()
		<-s.done
		if s.err == nil {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
		}
		return s.entry, s.err
	}
	s := &slot{done: make(chan struct{})}
	c.clock++
	s.lastUsed = c.clock
	c.entries[name] = s
	c.mu.Unlock()

	entry, err := c.load(spec)
	c.mu.Lock()
	if err == nil && c.closed {
		// Close ran while this load was in flight and could not see the
		// unpublished entry: shut it down here instead of publishing a
		// live compactor nothing would ever stop.
		err = fmt.Errorf("catalog: catalog is closed")
		go entry.close()
		entry = nil
	}
	if err != nil {
		s.err = err
		delete(c.entries, name) // allow retry
	} else {
		s.entry = entry
		c.loads++
		c.evictOverBudgetLocked(name)
	}
	c.mu.Unlock()
	close(s.done)
	return entry, err
}

// evictOverBudgetLocked drops least-recently-used loaded entries until
// the byte budget holds. The entry named keep (the one just loaded),
// in-flight loads, and live entries are never evicted — a live entry's
// ingested mutations are not reconstructible from its spec, so evicting
// one would silently reload the pristine base graph; live memory is
// bounded by epoch retirement instead.
func (c *Catalog) evictOverBudgetLocked(keep string) {
	if c.maxBytes <= 0 {
		return
	}
	for c.residentBytesLocked() > c.maxBytes {
		victim := ""
		var oldest int64
		for name, s := range c.entries {
			if name == keep || s.entry == nil || s.entry.liveGraph != nil {
				continue
			}
			if victim == "" || s.lastUsed < oldest {
				victim, oldest = name, s.lastUsed
			}
		}
		if victim == "" {
			return
		}
		if ent := c.entries[victim].entry; ent != nil {
			// release any background resources off-lock (victims are
			// static today, but close must never run under c.mu: a live
			// compactor could be blocked charging bytes through it)
			go ent.close()
		}
		delete(c.entries, victim)
		c.evictions++
	}
}

func (c *Catalog) residentBytesLocked() int64 {
	var total int64
	for _, s := range c.entries {
		if s.entry != nil {
			total += s.entry.bytes
		}
	}
	return total
}

// load materializes a spec outside the catalog lock: read or generate
// the graph, adopt any snapshot-embedded placements, and build the
// default hash view (partition + fragments, fragments in parallel) so
// the first job pays nothing.
func (c *Catalog) load(spec Spec) (*Entry, error) {
	var g *graph.Graph
	var placements []graph.Placement
	var err error
	switch {
	case spec.Gen != "":
		g, err = Generate(spec.Gen)
	case strings.HasSuffix(spec.Path, graph.SnapshotExt):
		g, placements, err = graph.ReadSnapshotFile(spec.Path)
	default:
		if snap := spec.Path + graph.SnapshotExt; snapshotFresh(spec.Path, snap) {
			g, placements, err = graph.ReadSnapshotFile(snap)
		} else {
			g, err = readEdgeListFile(spec.Path)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: load %q: %w", spec.Name, err)
	}
	if spec.Undirected && !g.Undirected {
		g = graph.Undirectify(g)
	}
	e := &Entry{
		Spec:     spec,
		Graph:    g,
		LoadedAt: time.Now(),
		cat:      c,
		workers:  c.workers,
	}
	snapParts := make(map[string]*partition.Partition)
	for _, p := range placements {
		if p.Workers != c.workers || len(p.Owner) != g.NumVertices() {
			continue // built for another cluster shape: ignore
		}
		part, err := partition.FromOwners(p.Workers, p.Owner)
		if err != nil {
			// embedded placements are only a re-partitioning cache: a
			// corrupt one is dropped (the view recomputes it), it must
			// not make an otherwise valid dataset unloadable
			continue
		}
		snapParts[p.Name] = part
	}

	// Wrap the graph in its epoch holder and eagerly build the default
	// (hash, loaded orientation) view so the first job pays nothing. The
	// bytes accumulated so far become the entry's base size; only later
	// derivations flow through the LRU charge hook (the entry is not
	// yet published, so addDerivedBytes could not account them anyway).
	hook := func(b int64) { c.addDerivedBytes(e, b) }
	if spec.Mutable {
		lg, err := live.New(g, live.Options{
			Workers:         c.workers,
			MaxDeltaOps:     c.maxDeltaOps,
			MaxDeltaBatches: c.maxDeltaBatch,
			Preset:          snapParts,
		})
		if err != nil {
			return nil, fmt.Errorf("catalog: load %q: %w", spec.Name, err)
		}
		ep := lg.Pin()
		_, err = ep.View(partition.PlacementHash, false)
		ep.Release()
		if err != nil {
			lg.Close()
			return nil, fmt.Errorf("catalog: load %q: %w", spec.Name, err)
		}
		e.liveGraph = lg
		// do not retain epoch 1's graph or partition on the entry: the
		// epochs own them, and an entry-level reference would keep the
		// base CSR resident (uncounted) after the epoch retires
		e.Graph = nil
		e.bytes = lg.Bytes()
		lg.SetOnBytes(hook)
		return e, nil
	}
	ep := live.NewEpoch(1, g, live.EpochConfig{Workers: c.workers, Preset: snapParts})
	hashView, err := ep.View(partition.PlacementHash, false)
	if err != nil {
		return nil, fmt.Errorf("catalog: load %q: %w", spec.Name, err)
	}
	e.epoch = ep
	e.Part = hashView.Part
	e.bytes = ep.Bytes()
	ep.SetOnBytes(hook)
	return e, nil
}

// addDerivedBytes charges a lazily-derived view to its entry and
// re-applies the byte budget (the entry that grew is never the victim).
// The slot must still hold this exact entry: a caller that kept an
// already-evicted Entry derives a view the cache no longer holds, which
// must not be charged to a re-loaded successor.
func (c *Catalog) addDerivedBytes(e *Entry, b int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.entries[e.Spec.Name]; ok && s.entry == e {
		e.bytes += b
		c.evictOverBudgetLocked(e.Spec.Name)
	}
}

// snapshotFresh reports whether snap exists and is at least as new as
// the text edge list it shadows — an edge list edited after its
// snapshot was written must win, not silently serve stale data.
func snapshotFresh(text, snap string) bool {
	ss, err := os.Stat(snap)
	if err != nil || ss.IsDir() {
		return false
	}
	ts, err := os.Stat(text)
	if err != nil {
		return true // no text file at all: the snapshot is the data
	}
	return !ss.ModTime().Before(ts.ModTime())
}

func readEdgeListFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// infoLocked fills an Info for one dataset; c.mu must be held. Live
// counters are read without pinning (the current epoch cannot be freed
// while current).
func (c *Catalog) infoLocked(name string) Info {
	info := Info{Spec: c.specs[name]}
	s, ok := c.entries[name]
	if !ok || s.entry == nil {
		return info
	}
	e := s.entry
	info.Loaded = true
	info.Bytes = e.bytes
	if lg := e.liveGraph; lg != nil {
		st := lg.Stats()
		info.Vertices = st.Vertices
		info.Edges = st.Edges
		info.Weighted = lg.Weighted()
		info.Epoch = st.Epoch
		return info
	}
	g := e.Graph
	info.Vertices = g.NumVertices()
	info.Edges = g.NumEdges()
	info.Weighted = g.Weighted()
	info.IsUndir = g.Undirected
	return info
}

// List returns all datasets in registration order.
func (c *Catalog) List() []Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Info, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.infoLocked(name))
	}
	return out
}

// DetailOf returns the full introspection payload of one dataset
// without forcing a load: materialized views with their edge cuts, and
// live epoch + delta-log statistics for mutable datasets.
func (c *Catalog) DetailOf(name string) (Detail, error) {
	c.mu.Lock()
	if _, ok := c.specs[name]; !ok {
		c.mu.Unlock()
		return Detail{}, fmt.Errorf("catalog: unknown dataset %q", name)
	}
	d := Detail{Info: c.infoLocked(name), Workers: c.workers}
	var e *Entry
	if s, ok := c.entries[name]; ok {
		e = s.entry
	}
	c.mu.Unlock()
	if e == nil {
		return d, nil
	}
	for _, v := range e.Views() {
		d.Views = append(d.Views, ViewInfo{
			Placement:  v.Placement,
			Undirected: v.Undirected,
			EdgeCut:    v.EdgeCut,
		})
	}
	if lg := e.liveGraph; lg != nil {
		st := lg.Stats()
		d.Live = &st
	}
	return d, nil
}

// Stats returns a snapshot of catalog counters.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Datasets:  len(c.specs),
		Loads:     c.loads,
		Hits:      c.hits,
		Evictions: c.evictions,
		Bytes:     c.residentBytesLocked(),
		MaxBytes:  c.maxBytes,
	}
	for _, s := range c.entries {
		if s.entry != nil {
			st.Loaded++
		}
	}
	return st
}

// ParseGen parses a generator expression "kind:key=val,key=val" and
// returns a closure producing the graph. Supported kinds mirror
// cmd/graphgen:
//
//	rmat:scale=S,ef=E,seed=N[,weighted][,maxw=W][,undirected]
//	social:scale=S,ef=E,seed=N
//	chain:n=N
//	tree:n=N,seed=S
//	grid:rows=R,cols=C,maxw=W,seed=S
//	digraph:n=N,m=M,seed=S
//	forest:n=N,k=K,seed=S
func ParseGen(expr string) (func() *graph.Graph, error) {
	kind, rest, _ := strings.Cut(expr, ":")
	kv := map[string]string{}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			k, v, found := strings.Cut(part, "=")
			k = strings.TrimSpace(k)
			if k == "" {
				return nil, fmt.Errorf("catalog: empty key in generator %q", expr)
			}
			if !found {
				v = "true" // bare flags: "weighted"
			}
			kv[k] = strings.TrimSpace(v)
		}
	}
	get := func(key string, def int64) (int64, error) {
		s, ok := kv[key]
		if !ok {
			return def, nil
		}
		delete(kv, key)
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("catalog: generator %q: bad %s=%q", expr, key, s)
		}
		return n, nil
	}
	getBool := func(key string) bool {
		s, ok := kv[key]
		delete(kv, key)
		return ok && s != "false"
	}

	var gen func() *graph.Graph
	var err error
	fail := func(e error) (func() *graph.Graph, error) { return nil, e }
	switch kind {
	case "rmat":
		var scale, ef, seed, maxw int64
		if scale, err = get("scale", 10); err != nil {
			return fail(err)
		}
		if ef, err = get("ef", 8); err != nil {
			return fail(err)
		}
		if seed, err = get("seed", 1); err != nil {
			return fail(err)
		}
		if maxw, err = get("maxw", 100); err != nil {
			return fail(err)
		}
		weighted := getBool("weighted")
		undirected := getBool("undirected")
		gen = func() *graph.Graph {
			g := graph.RMAT(int(scale), int(ef), seed, graph.RMATOptions{
				Weighted: weighted, MaxWeight: int32(maxw), NoSelfLoops: true})
			if undirected {
				g = graph.Undirectify(g)
			}
			return g
		}
	case "social":
		var scale, ef, seed int64
		if scale, err = get("scale", 10); err != nil {
			return fail(err)
		}
		if ef, err = get("ef", 8); err != nil {
			return fail(err)
		}
		if seed, err = get("seed", 1); err != nil {
			return fail(err)
		}
		gen = func() *graph.Graph { return graph.SocialRMAT(int(scale), int(ef), seed) }
	case "chain":
		var n int64
		if n, err = get("n", 1000); err != nil {
			return fail(err)
		}
		gen = func() *graph.Graph { return graph.Chain(int(n)) }
	case "tree":
		var n, seed int64
		if n, err = get("n", 1000); err != nil {
			return fail(err)
		}
		if seed, err = get("seed", 1); err != nil {
			return fail(err)
		}
		gen = func() *graph.Graph { return graph.RandomTree(int(n), seed) }
	case "grid":
		var rows, cols, maxw, seed int64
		if rows, err = get("rows", 100); err != nil {
			return fail(err)
		}
		if cols, err = get("cols", 100); err != nil {
			return fail(err)
		}
		if maxw, err = get("maxw", 100); err != nil {
			return fail(err)
		}
		if seed, err = get("seed", 1); err != nil {
			return fail(err)
		}
		gen = func() *graph.Graph { return graph.Grid(int(rows), int(cols), int32(maxw), seed) }
	case "digraph":
		var n, m, seed int64
		if n, err = get("n", 1000); err != nil {
			return fail(err)
		}
		if m, err = get("m", 4000); err != nil {
			return fail(err)
		}
		if seed, err = get("seed", 1); err != nil {
			return fail(err)
		}
		gen = func() *graph.Graph { return graph.RandomDigraph(int(n), int(m), seed) }
	case "forest":
		var n, k, seed int64
		if n, err = get("n", 1000); err != nil {
			return fail(err)
		}
		if k, err = get("k", 4); err != nil {
			return fail(err)
		}
		if seed, err = get("seed", 1); err != nil {
			return fail(err)
		}
		gen = func() *graph.Graph { return graph.Forest(int(n), int(k), seed) }
	default:
		return nil, fmt.Errorf("catalog: unknown generator kind %q", kind)
	}
	if len(kv) > 0 {
		keys := make([]string, 0, len(kv))
		for k := range kv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return nil, fmt.Errorf("catalog: generator %q: unknown keys %v", expr, keys)
	}
	return gen, nil
}

// Generate evaluates a generator expression.
func Generate(expr string) (*graph.Graph, error) {
	gen, err := ParseGen(expr)
	if err != nil {
		return nil, err
	}
	return gen(), nil
}
