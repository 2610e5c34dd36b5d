package algorithms

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// This file is the shared dispatch table: every (algorithm, engine,
// variant) triple of the reproduction behind one uniform signature, so
// the harness tables, the benchmarks and the graphd job service run the
// exact same code paths.

// Engine selects the runtime an algorithm variant executes on.
type Engine string

const (
	// EngineChannel is the paper's channel-based engine.
	EngineChannel Engine = "channel"
	// EnginePregel is the monolithic-message baseline.
	EnginePregel Engine = "pregel"
)

// ParseEngine parses an engine name; "" defaults to the channel engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", string(EngineChannel):
		return EngineChannel, nil
	case string(EnginePregel):
		return EnginePregel, nil
	}
	return "", fmt.Errorf("algorithms: unknown engine %q (want channel or pregel)", s)
}

// Params carries the per-run knobs of the registered algorithms; zero
// values select documented defaults.
type Params struct {
	// Iterations is the superstep count for PageRank (0 = 30, the
	// paper's setting).
	Iterations int `json:"iterations,omitempty"`
	// Source is the SSSP source vertex.
	Source graph.VertexID `json:"source,omitempty"`
}

// DefaultPageRankIterations is the paper's PageRank superstep count.
const DefaultPageRankIterations = 30

// Metrics normalizes the driver's bsp.Metrics into one shape for
// tables, JSON responses, and cross-engine comparison.
type Metrics struct {
	Engine     Engine        `json:"engine"`
	Supersteps int           `json:"supersteps"`
	NetBytes   int64         `json:"net_bytes"`
	WallTime   time.Duration `json:"wall_time_ns"`
	// LocalBytes counts loopback bytes (a worker to itself).
	LocalBytes int64 `json:"local_bytes,omitempty"`
	// Rounds is the total number of exchange rounds the job ran
	// (every round is one flush/deliver cycle across all workers).
	Rounds int64 `json:"rounds,omitempty"`
	// Model is the modeled network time of the paper's cluster
	// (bsp.Metrics.Model). Only a job whose workers share one process
	// has it; a distributed job leaves it out.
	Model time.Duration `json:"model_ns,omitempty"`
	// HeapAllocDelta is the number of heap bytes allocated while the
	// run was in flight, filled by the job manager from the cumulative
	// runtime/metrics counter /gc/heap/allocs:bytes read before and
	// after the run. The counter is monotonic, so GC timing can no
	// longer drive the delta negative; the residual approximation is
	// that the counter is process-wide, so allocations made by jobs
	// running concurrently in the same process are attributed here too.
	HeapAllocDelta int64 `json:"heap_alloc_delta_bytes,omitempty"`
	// WorkerWall, for distributed jobs, is each worker's wall time as
	// observed by the coordinator: job start to the arrival of the
	// partial result covering that worker, indexed by worker id. The
	// spread across workers is the straggler signal at job granularity.
	WorkerWall []time.Duration `json:"worker_wall_ns,omitempty"`
	// Placement names the vertex placement the job ran under and
	// EdgeCut its fraction of cross-worker edges (filled by the job
	// manager from the catalog view).
	Placement string  `json:"placement,omitempty"`
	EdgeCut   float64 `json:"edge_cut,omitempty"`
	// Epoch is the live-dataset epoch the job executed against (0 for
	// immutable datasets; filled by the job manager).
	Epoch uint64 `json:"epoch,omitempty"`
}

func metricsOf(m bsp.Metrics) Metrics {
	return Metrics{Supersteps: m.Supersteps, NetBytes: m.NetBytes, WallTime: m.WallTime,
		LocalBytes: m.LocalBytes, Rounds: m.Rounds, Model: m.Model}
}

// Result is the normalized output of a registry run: exactly one of the
// payload fields is set, per the spec's Kind.
type Result struct {
	Labels  []graph.VertexID `json:"labels,omitempty"`
	Ranks   []float64        `json:"ranks,omitempty"`
	Dists   []int64          `json:"dists,omitempty"`
	MSF     *MSFResult       `json:"msf,omitempty"`
	Metrics Metrics          `json:"metrics"`
}

// Kind reports which payload field is populated: "labels", "ranks",
// "dists" or "msf".
func (r *Result) Kind() string {
	switch {
	case r.Ranks != nil:
		return "ranks"
	case r.Dists != nil:
		return "dists"
	case r.MSF != nil:
		return "msf"
	default:
		return "labels"
	}
}

// RunFunc is the uniform signature every registered variant is adapted
// to.
type RunFunc func(g *graph.Graph, opts Options, p Params) (*Result, error)

// Spec describes one algorithm: its input requirements and the variants
// available per engine.
type Spec struct {
	Name        string
	Description string
	// NeedsUndirected means the algorithm assumes both orientations of
	// every edge are stored (run directed inputs through
	// graph.Undirectify first).
	NeedsUndirected bool
	// NeedsWeights means the algorithm reads edge weights.
	NeedsWeights bool
	// HasIterations/HasSource advertise which Params fields apply.
	HasIterations bool
	HasSource     bool

	variants map[Engine]map[string]RunFunc
}

// DefaultVariant is the variant name every algorithm registers on every
// supported engine.
const DefaultVariant = "basic"

// Engines lists the engines this algorithm runs on, sorted.
func (s *Spec) Engines() []Engine {
	out := make([]Engine, 0, len(s.variants))
	for e := range s.variants {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Variants lists the variant names available on eng, sorted.
func (s *Spec) Variants(eng Engine) []string {
	vs := s.variants[eng]
	out := make([]string, 0, len(vs))
	for v := range vs {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// lookupVariant resolves (eng, variant) to its RunFunc; variant ""
// selects DefaultVariant.
func (s *Spec) lookupVariant(eng Engine, variant string) (RunFunc, error) {
	if variant == "" {
		variant = DefaultVariant
	}
	byEngine, ok := s.variants[eng]
	if !ok {
		return nil, fmt.Errorf("algorithms: %s does not run on engine %q", s.Name, eng)
	}
	fn, ok := byEngine[variant]
	if !ok {
		return nil, fmt.Errorf("algorithms: %s/%s has no variant %q (have %v)",
			s.Name, eng, variant, s.Variants(eng))
	}
	return fn, nil
}

// CheckVariant reports whether (eng, variant) dispatches, without
// running anything — the submit-time validation of the job service.
func (s *Spec) CheckVariant(eng Engine, variant string) error {
	_, err := s.lookupVariant(eng, variant)
	return err
}

// Run dispatches to the (eng, variant) implementation; variant ""
// selects DefaultVariant.
func (s *Spec) Run(eng Engine, variant string, g *graph.Graph, opts Options, p Params) (*Result, error) {
	fn, err := s.lookupVariant(eng, variant)
	if err != nil {
		return nil, err
	}
	res, err := fn(g, opts, p)
	if err != nil {
		return nil, err
	}
	res.Metrics.Engine = eng
	return res, nil
}

// adapters from the concrete function signatures to RunFunc; Spec.Run
// stamps the engine on the metrics

func labels(f func(*graph.Graph, Options) ([]graph.VertexID, bsp.Metrics, error)) RunFunc {
	return func(g *graph.Graph, opts Options, _ Params) (*Result, error) {
		labels, m, err := f(g, opts)
		return &Result{Labels: labels, Metrics: metricsOf(m)}, err
	}
}

func ranks(f func(*graph.Graph, Options, int) ([]float64, bsp.Metrics, error)) RunFunc {
	return func(g *graph.Graph, opts Options, p Params) (*Result, error) {
		ranks, m, err := f(g, opts, iterationsOrDefault(p))
		return &Result{Ranks: ranks, Metrics: metricsOf(m)}, err
	}
}

func dists(f func(*graph.Graph, graph.VertexID, Options) ([]int64, bsp.Metrics, error)) RunFunc {
	return func(g *graph.Graph, opts Options, p Params) (*Result, error) {
		dists, m, err := f(g, p.Source, opts)
		return &Result{Dists: dists, Metrics: metricsOf(m)}, err
	}
}

func forest(f func(*graph.Graph, Options) (MSFResult, bsp.Metrics, error)) RunFunc {
	return func(g *graph.Graph, opts Options, _ Params) (*Result, error) {
		res, m, err := f(g, opts)
		return &Result{MSF: &res, Metrics: metricsOf(m)}, err
	}
}

func iterationsOrDefault(p Params) int {
	if p.Iterations > 0 {
		return p.Iterations
	}
	return DefaultPageRankIterations
}

var registry = map[string]*Spec{
	"pagerank": {
		Name:          "pagerank",
		Description:   "PageRank, fixed iteration count",
		HasIterations: true,
		variants: map[Engine]map[string]RunFunc{
			EngineChannel: {
				DefaultVariant: ranks(pageRankChannel),
				"scatter":      ranks(pageRankScatter),
			},
			EnginePregel: {
				DefaultVariant: ranks(pageRankPregel),
				"ghost":        ranks(pageRankPregelGhost),
			},
		},
	},
	"sssp": {
		Name:         "sssp",
		Description:  "single-source shortest paths (non-negative weights)",
		NeedsWeights: true,
		HasSource:    true,
		variants: map[Engine]map[string]RunFunc{
			EngineChannel: {
				DefaultVariant: dists(ssspChannel),
				"propagation":  dists(ssspPropagation),
			},
			EnginePregel: {
				DefaultVariant: dists(ssspPregel),
			},
		},
	},
	"wcc": {
		Name:            "wcc",
		Description:     "weakly connected components (hash-min HCC)",
		NeedsUndirected: true,
		variants: map[Engine]map[string]RunFunc{
			EngineChannel: {
				DefaultVariant: labels(wccChannel),
				"propagation":  labels(wccPropagation),
				"blogel":       labels(wccBlogel),
			},
			EnginePregel: {
				DefaultVariant: labels(wccPregel),
			},
		},
	},
	"pointerjump": {
		Name:        "pointerjump",
		Description: "pointer jumping / list ranking on a parent-pointer forest",
		variants: map[Engine]map[string]RunFunc{
			EngineChannel: {
				DefaultVariant: labels(pointerJumpChannel),
				"reqresp":      labels(pointerJumpReqResp),
			},
			EnginePregel: {
				DefaultVariant: labels(pointerJumpPregel),
				"reqresp":      labels(pointerJumpPregelReqResp),
			},
		},
	},
	"sv": {
		Name:            "sv",
		Description:     "Shiloach-Vishkin connected components",
		NeedsUndirected: true,
		variants: map[Engine]map[string]RunFunc{
			EngineChannel: {
				DefaultVariant: labels(svChannel),
				"reqresp":      labels(svReqResp),
				"scatter":      labels(svScatter),
				"both":         labels(svBoth),
			},
			EnginePregel: {
				DefaultVariant: labels(svPregel),
				"reqresp":      labels(svPregelReqResp),
			},
		},
	},
	"scc": {
		Name:        "scc",
		Description: "strongly connected components (Min-Label)",
		variants: map[Engine]map[string]RunFunc{
			EngineChannel: {
				DefaultVariant: labels(sccChannel),
				"propagation":  labels(sccPropagation),
			},
			EnginePregel: {
				DefaultVariant: labels(sccPregel),
			},
		},
	},
	"msf": {
		Name:            "msf",
		Description:     "minimum spanning forest (Boruvka)",
		NeedsUndirected: true,
		NeedsWeights:    true,
		variants: map[Engine]map[string]RunFunc{
			EngineChannel: {
				DefaultVariant: forest(msfChannel),
			},
			EnginePregel: {
				DefaultVariant: forest(msfPregel),
			},
		},
	},
}

// aliases maps accepted request spellings onto canonical names. "cc"
// resolves to wcc (what connected-components requesters mean on general
// graphs), NOT to pointerjump, whose parent-pointer-forest precondition
// a general graph silently violates; pointerjump keeps the "pj" alias.
var aliases = map[string]string{
	"pr":         "pagerank",
	"pj":         "pointerjump",
	"cc":         "wcc",
	"components": "wcc",
}

// Lookup resolves an algorithm name (or alias) to its Spec.
func Lookup(name string) (*Spec, bool) {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	s, ok := registry[name]
	return s, ok
}

// Registry returns all specs sorted by name.
func Registry() []*Spec {
	out := make([]*Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
