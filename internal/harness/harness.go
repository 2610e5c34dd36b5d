package harness

import (
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Row is one line of a result table: program name, dataset name, wall
// time, modeled network time, network message volume, supersteps.
type Row struct {
	Program, Dataset string
	WallTime, Model  time.Duration
	NetBytes         int64
	Supersteps       int
}

// Entry is one row of the paper's tables: its table ("4", "5-scatter",
// "5-reqresp", "5-prop", "6" or "7") and label there, its
// root sub-benchmark path without "Benchmark" ("" for none), and what it
// runs: algorithm, engine, variant, dataset (by paper name), placement
// (hash, or greedy for the paper's "(P)") and, for PageRank, Iters.
type Entry struct {
	Table, Program, Bench, Alg string
	Engine                     algorithms.Engine
	Variant, Dataset, Place    string
	Iters                      int
}

const (
	pr          = 30 // the paper's PageRank runs 30 supersteps
	prg, chn    = algorithms.EnginePregel, algorithms.EngineChannel
	hash, local = partition.PlacementHash, partition.PlacementGreedy
)

// Entries is the paper's Tables IV-VII in table order: Table IV has two
// datasets per algorithm, the root benchmark runs the first.
var Entries = []Entry{
	{"4", "PR-pregel", "Table4/PR/pregel", "pagerank", prg, "basic", "WebUK", hash, pr},
	{"4", "PR-channel", "Table4/PR/channel", "pagerank", chn, "basic", "WebUK", hash, pr},
	{"4", "PR-pregel", "", "pagerank", prg, "basic", "Wikipedia", hash, pr},
	{"4", "PR-channel", "", "pagerank", chn, "basic", "Wikipedia", hash, pr},
	{"4", "WCC-pregel", "Table4/WCC/pregel", "wcc", prg, "basic", "Wikipedia", hash, 0},
	{"4", "WCC-channel", "Table4/WCC/channel", "wcc", chn, "basic", "Wikipedia", hash, 0},
	{"4", "WCC-pregel", "", "wcc", prg, "basic", "Wikipedia", local, 0},
	{"4", "WCC-channel", "", "wcc", chn, "basic", "Wikipedia", local, 0},
	{"4", "PJ-pregel", "Table4/PJ/pregel", "pointerjump", prg, "basic", "Chain", hash, 0},
	{"4", "PJ-channel", "Table4/PJ/channel", "pointerjump", chn, "basic", "Chain", hash, 0},
	{"4", "PJ-pregel", "", "pointerjump", prg, "basic", "Tree", hash, 0},
	{"4", "PJ-channel", "", "pointerjump", chn, "basic", "Tree", hash, 0},
	{"4", "SV-pregel", "Table4/SV/pregel", "sv", prg, "basic", "Facebook", hash, 0},
	{"4", "SV-channel", "Table4/SV/channel", "sv", chn, "basic", "Facebook", hash, 0},
	{"4", "SV-pregel", "", "sv", prg, "basic", "Twitter", hash, 0},
	{"4", "SV-channel", "", "sv", chn, "basic", "Twitter", hash, 0},
	{"4", "MSF-pregel", "Table4/MSF/pregel", "msf", prg, "basic", "USARoad", hash, 0},
	{"4", "MSF-channel", "Table4/MSF/channel", "msf", chn, "basic", "USARoad", hash, 0},
	{"4", "MSF-pregel", "", "msf", prg, "basic", "RMAT-W", hash, 0},
	{"4", "MSF-channel", "", "msf", chn, "basic", "RMAT-W", hash, 0},
	{"4", "SCC-pregel", "Table4/SCC/pregel", "scc", prg, "basic", "Wikipedia", hash, 0},
	{"4", "SCC-channel", "Table4/SCC/channel", "scc", chn, "basic", "Wikipedia", hash, 0},
	{"4", "SCC-pregel", "", "scc", prg, "basic", "Wikipedia", local, 0},
	{"4", "SCC-channel", "", "scc", chn, "basic", "Wikipedia", local, 0},
	{"5-scatter", "pregel(basic)", "Table5/ScatterCombine/pregel-basic", "pagerank", prg, "basic", "Wikipedia", hash, pr},
	{"5-scatter", "pregel(ghost)", "Table5/ScatterCombine/pregel-ghost", "pagerank", prg, "ghost", "Wikipedia", hash, pr},
	{"5-scatter", "channel(basic)", "Table5/ScatterCombine/channel-basic", "pagerank", chn, "basic", "Wikipedia", hash, pr},
	{"5-scatter", "channel(scatter)", "Table5/ScatterCombine/channel-scatter", "pagerank", chn, "scatter", "Wikipedia", hash, pr},
	{"5-scatter", "pregel(basic)", "", "pagerank", prg, "basic", "WebUK", hash, pr},
	{"5-scatter", "pregel(ghost)", "", "pagerank", prg, "ghost", "WebUK", hash, pr},
	{"5-scatter", "channel(basic)", "", "pagerank", chn, "basic", "WebUK", hash, pr},
	{"5-scatter", "channel(scatter)", "", "pagerank", chn, "scatter", "WebUK", hash, pr},
	{"5-reqresp", "pregel(basic)", "Table5/RequestRespond/pregel-basic", "pointerjump", prg, "basic", "Tree", hash, 0},
	{"5-reqresp", "pregel(reqresp)", "Table5/RequestRespond/pregel-reqresp", "pointerjump", prg, "reqresp", "Tree", hash, 0},
	{"5-reqresp", "channel(basic)", "Table5/RequestRespond/channel-basic", "pointerjump", chn, "basic", "Tree", hash, 0},
	{"5-reqresp", "channel(reqresp)", "Table5/RequestRespond/channel-reqresp", "pointerjump", chn, "reqresp", "Tree", hash, 0},
	{"5-reqresp", "pregel(basic)", "", "pointerjump", prg, "basic", "Chain", hash, 0},
	{"5-reqresp", "pregel(reqresp)", "", "pointerjump", prg, "reqresp", "Chain", hash, 0},
	{"5-reqresp", "channel(basic)", "", "pointerjump", chn, "basic", "Chain", hash, 0},
	{"5-reqresp", "channel(reqresp)", "", "pointerjump", chn, "reqresp", "Chain", hash, 0},
	{"5-prop", "pregel(basic)", "Table5/Propagation/hash/pregel-basic", "wcc", prg, "basic", "Wikipedia", hash, 0},
	{"5-prop", "blogel", "Table5/Propagation/hash/blogel", "wcc", chn, "blogel", "Wikipedia", hash, 0},
	{"5-prop", "channel(basic)", "Table5/Propagation/hash/channel-basic", "wcc", chn, "basic", "Wikipedia", hash, 0},
	{"5-prop", "channel(prop.)", "Table5/Propagation/hash/channel-prop", "wcc", chn, "propagation", "Wikipedia", hash, 0},
	{"5-prop", "pregel(basic)", "Table5/Propagation/partitioned/pregel-basic", "wcc", prg, "basic", "Wikipedia", local, 0},
	{"5-prop", "blogel", "Table5/Propagation/partitioned/blogel", "wcc", chn, "blogel", "Wikipedia", local, 0},
	{"5-prop", "channel(basic)", "Table5/Propagation/partitioned/channel-basic", "wcc", chn, "basic", "Wikipedia", local, 0},
	{"5-prop", "channel(prop.)", "Table5/Propagation/partitioned/channel-prop", "wcc", chn, "propagation", "Wikipedia", local, 0},
	{"6", "1-pregel(reqresp)", "Table6/Facebook/1-pregel-reqresp", "sv", prg, "reqresp", "Facebook", hash, 0},
	{"6", "2-channel(basic)", "Table6/Facebook/2-channel-basic", "sv", chn, "basic", "Facebook", hash, 0},
	{"6", "3-channel(reqresp)", "Table6/Facebook/3-channel-reqresp", "sv", chn, "reqresp", "Facebook", hash, 0},
	{"6", "4-channel(scatter)", "Table6/Facebook/4-channel-scatter", "sv", chn, "scatter", "Facebook", hash, 0},
	{"6", "5-channel(both)", "Table6/Facebook/5-channel-both", "sv", chn, "both", "Facebook", hash, 0},
	{"6", "1-pregel(reqresp)", "Table6/Twitter/1-pregel-reqresp", "sv", prg, "reqresp", "Twitter", hash, 0},
	{"6", "2-channel(basic)", "Table6/Twitter/2-channel-basic", "sv", chn, "basic", "Twitter", hash, 0},
	{"6", "3-channel(reqresp)", "Table6/Twitter/3-channel-reqresp", "sv", chn, "reqresp", "Twitter", hash, 0},
	{"6", "4-channel(scatter)", "Table6/Twitter/4-channel-scatter", "sv", chn, "scatter", "Twitter", hash, 0},
	{"6", "5-channel(both)", "Table6/Twitter/5-channel-both", "sv", chn, "both", "Twitter", hash, 0},
	{"7", "1-pregel(basic)", "Table7/hash/1-pregel-basic", "scc", prg, "basic", "Wikipedia", hash, 0},
	{"7", "2-channel(basic)", "Table7/hash/2-channel-basic", "scc", chn, "basic", "Wikipedia", hash, 0},
	{"7", "3-channel(prop.)", "Table7/hash/3-channel-prop", "scc", chn, "propagation", "Wikipedia", hash, 0},
	{"7", "1-pregel(basic)", "Table7/partitioned/1-pregel-basic", "scc", prg, "basic", "Wikipedia", local, 0},
	{"7", "2-channel(basic)", "Table7/partitioned/2-channel-basic", "scc", chn, "basic", "Wikipedia", local, 0},
	{"7", "3-channel(prop.)", "Table7/partitioned/3-channel-prop", "scc", chn, "propagation", "Wikipedia", local, 0},
}

// Metric is what a claim compares.
type Metric string

const Bytes, Supersteps, Model Metric = "bytes", "supersteps", "model"

// Claim is one comparison the paper makes: on every dataset of Table,
// program Opt takes strictly less of Metric than program Base. A claim
// with MinPerWorker > 0 holds only where the dataset has at least that
// many vertices per worker, and is not asserted below it.
type Claim struct {
	Table, Opt, Base string
	Metric           Metric
	MinPerWorker     int
}

// Claims are the paper's bytes, supersteps and modeled-time claims on
// Entries. They are deterministic, so the table tests assert every one
// of them. The channel(reqresp) < pregel(reqresp) bytes claim is
// §V-B2's reply format (ordered bare values, not (id, value) pairs);
// channel(prop.) < blogel supersteps is several exchange rounds per
// superstep against one. The two Model claims are the paper's wall
// claims on the modeled cluster: PJ's channel and pregel run the same
// rounds, so bytes decide; SCC's propagation saves rounds.
//
// pregel(ghost) < pregel(basic) is bounded at 32 vertices per worker.
// A ghost message costs what a basic one does (a 4-byte id and the
// value) and replaces the messages a hub would send to each mirror
// worker, but basic mode's combiner already merges a hub's message into
// the other local senders' to the same destination. With few vertices
// per worker a hub's neighbors spread over most workers, one or two on
// each, and that merge wins: on the second draw of the test-scale
// Wikipedia at 32 workers (16 vertices each) the 47 hubs reach 14.4
// workers each, and ghost's messages alone take 6 480 B more than
// basic's over the run, besides its 8 122 B of section counts (one per
// superstep toward each of the 262 worker pairs a hub mirrors across).
var Claims = []Claim{
	{"4", "SV-channel", "SV-pregel", Bytes, 0},
	{"4", "MSF-channel", "MSF-pregel", Bytes, 0},
	{"4", "SCC-channel", "SCC-pregel", Bytes, 0},
	{"5-scatter", "channel(basic)", "pregel(basic)", Bytes, 0},
	{"5-scatter", "pregel(ghost)", "pregel(basic)", Bytes, 32},
	{"5-scatter", "channel(scatter)", "channel(basic)", Bytes, 0},
	{"5-reqresp", "channel(basic)", "pregel(basic)", Bytes, 0},
	{"5-reqresp", "channel(basic)", "pregel(basic)", Model, 0},
	{"5-reqresp", "channel(reqresp)", "pregel(basic)", Bytes, 0},
	{"5-reqresp", "channel(reqresp)", "pregel(basic)", Supersteps, 0},
	{"5-reqresp", "channel(reqresp)", "channel(basic)", Bytes, 0},
	{"5-reqresp", "channel(reqresp)", "channel(basic)", Supersteps, 0},
	{"5-reqresp", "channel(reqresp)", "pregel(reqresp)", Bytes, 0},
	{"5-prop", "channel(prop.)", "pregel(basic)", Supersteps, 0},
	{"5-prop", "channel(prop.)", "channel(basic)", Bytes, 0},
	{"5-prop", "channel(prop.)", "channel(basic)", Supersteps, 0},
	{"5-prop", "channel(prop.)", "blogel", Supersteps, 0},
	{"6", "5-channel(both)", "1-pregel(reqresp)", Bytes, 0},
	{"6", "5-channel(both)", "2-channel(basic)", Bytes, 0},
	{"6", "5-channel(both)", "3-channel(reqresp)", Bytes, 0},
	{"7", "2-channel(basic)", "1-pregel(basic)", Bytes, 0},
	{"7", "3-channel(prop.)", "2-channel(basic)", Bytes, 0},
	{"7", "3-channel(prop.)", "2-channel(basic)", Supersteps, 0},
	{"7", "3-channel(prop.)", "2-channel(basic)", Model, 0},
}

// A Runner runs entries on one set of datasets, from one goroutine. Each
// input — a dataset, undirected if the algorithm needs it as graphd's
// jobs derive it, in one placement — gets its partition and fragments
// once, shared by its entries as the catalog shares a view between jobs.
type Runner struct {
	// Workers is the cluster size the inputs are partitioned for; set it
	// before the first Prepare.
	Workers int

	d      *Datasets
	und    map[string]*graph.Graph       // by dataset
	inputs map[string]algorithms.Options // by dataset, placement, orientation
}

// NewRunner returns a Runner over d on the paper's Workers.
func NewRunner(d *Datasets) *Runner {
	return &Runner{Workers: Workers, d: d, und: map[string]*graph.Graph{}, inputs: map[string]algorithms.Options{}}
}

// Prepare resolves e's input and returns a function that runs e on it.
func (r *Runner) Prepare(e Entry) func() (*algorithms.Result, error) {
	spec, _ := algorithms.Lookup(e.Alg) // registered: the harness tests run every entry
	g, key := r.d.byName(e.Dataset), e.Dataset+"/"+e.Place
	if spec.NeedsUndirected && !g.Undirected {
		if r.und[e.Dataset] == nil {
			r.und[e.Dataset] = graph.Undirectify(g)
		}
		g, key = r.und[e.Dataset], key+"/undirected"
	}
	opts, ok := r.inputs[key]
	if !ok {
		p, err := partition.ByName(e.Place, g, r.Workers)
		if err != nil {
			panic(fmt.Sprintf("harness: %s: %v", e.Dataset, err))
		}
		opts = algorithms.Options{Part: p, Frags: frag.Build(g, p), MaxSupersteps: 200000}
		r.inputs[key] = opts
	}
	return func() (*algorithms.Result, error) {
		return spec.Run(e.Engine, e.Variant, g, opts, algorithms.Params{Iterations: e.Iters})
	}
}

// Run runs the entries of one table on d ("" for every entry), in
// order, one Row each; a failed run panics.
func Run(d *Datasets, table string) []Row { return NewRunner(d).Run(table) }

// Run runs the entries of one table ("" for every entry), in order, one
// Row each; a failed run panics.
func (r *Runner) Run(table string) []Row {
	var rows []Row
	for _, e := range Entries {
		if table != "" && e.Table != table {
			continue
		}
		res, err := r.Prepare(e)()
		if err != nil {
			panic(fmt.Sprintf("harness: %s %s/%s on %s failed: %v", e.Alg, e.Engine, e.Variant, e.Dataset, err))
		}
		m, dataset := res.Metrics, e.Dataset
		if e.Place == local {
			dataset += "(P)"
		}
		rows = append(rows, Row{Program: e.Program, Dataset: dataset, WallTime: m.WallTime,
			Model: m.Model, NetBytes: m.NetBytes, Supersteps: m.Supersteps})
	}
	return rows
}

// One table each, as graphbench's fidelity pass reads them.
func Table5ScatterCombine(d *Datasets) []Row { return Run(d, "5-scatter") }
func Table5RequestRespond(d *Datasets) []Row { return Run(d, "5-reqresp") }
func Table5Propagation(d *Datasets) []Row    { return Run(d, "5-prop") }
func Table6(d *Datasets) []Row               { return Run(d, "6") }
func Table7(d *Datasets) []Row               { return Run(d, "7") }
