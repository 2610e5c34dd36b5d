package harness

import (
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Row is one line of a result table: program name, dataset name,
// simulated runtime, network message volume, supersteps.
type Row struct {
	Program    string
	Dataset    string
	SimTime    time.Duration
	WallTime   time.Duration
	NetBytes   int64
	Supersteps int
}

// opts builds algorithm options with a generous superstep cap.
func opts(w workload) algorithms.Options {
	return algorithms.Options{Part: w.p, Frags: w.frags, MaxSupersteps: 200000}
}

const prIterations = 30 // the paper's PageRank runs 30 supersteps

// variantRow names one table row: display label plus the registry
// coordinates (engine, variant) it dispatches to.
type variantRow struct {
	program string
	eng     algorithms.Engine
	variant string
}

// basicPair is the pregel-basic / channel-basic comparison every
// Table IV group runs.
func basicPair(prefix string) []variantRow {
	return []variantRow{
		{prefix + "-pregel", algorithms.EnginePregel, "basic"},
		{prefix + "-channel", algorithms.EngineChannel, "basic"},
	}
}

// workload is one (algorithm, dataset) cell of a table. Fragments are
// pre-resolved once per (graph, placement) pair and shared by every
// variant row of the cell, so the tables measure superstep time on the
// shared-nothing fragments, not fragment construction.
type workload struct {
	alg     string
	dataset string
	g       *graph.Graph
	p       *partition.Partition
	frags   *frag.Fragments
	params  algorithms.Params
}

// wl builds one workload, pre-resolving its fragments.
func wl(alg, dataset string, g *graph.Graph, p *partition.Partition, params algorithms.Params) workload {
	return workload{alg: alg, dataset: dataset, g: g, p: p, frags: frag.Build(g, p), params: params}
}

// run dispatches one workload/variant pair through the shared registry
// (the same path graphd jobs take) and renders the metrics as a Row.
func run(w workload, v variantRow) Row {
	spec, ok := algorithms.Lookup(w.alg)
	if !ok {
		panic(fmt.Sprintf("harness: unknown algorithm %q", w.alg))
	}
	res, err := spec.Run(v.eng, v.variant, w.g, opts(w), w.params)
	if err != nil {
		panic(fmt.Sprintf("harness: %s %s/%s on %s failed: %v", w.alg, v.eng, v.variant, w.dataset, err))
	}
	m := res.Metrics
	return Row{Program: v.program, Dataset: w.dataset, SimTime: m.SimTime,
		WallTime: m.WallTime, NetBytes: m.NetBytes, Supersteps: m.Supersteps}
}

// runAll runs every variant row of every workload, in order.
func runAll(ws []workload, vs []variantRow) []Row {
	rows := make([]Row, 0, len(ws)*len(vs))
	for _, w := range ws {
		for _, v := range vs {
			rows = append(rows, run(w, v))
		}
	}
	return rows
}

// Table4 reproduces Table IV: basic implementations in the baseline
// engine vs the channel engine for all six algorithms.
func Table4(d *Datasets) []Row {
	und := graph.Undirectify(d.Wiki)
	pr := algorithms.Params{Iterations: prIterations}
	groups := []struct {
		prefix string
		ws     []workload
	}{
		{"PR", []workload{
			wl("pagerank", "WebUK", d.WebUK, HashPart(d.WebUK), pr),
			wl("pagerank", "Wikipedia", d.Wiki, HashPart(d.Wiki), pr),
		}},
		{"WCC", []workload{
			wl("wcc", "Wikipedia", und, HashPart(und), algorithms.Params{}),
			wl("wcc", "Wikipedia(P)", und, GreedyPart(und), algorithms.Params{}),
		}},
		{"PJ", []workload{
			wl("pointerjump", "Chain", d.Chain, HashPart(d.Chain), algorithms.Params{}),
			wl("pointerjump", "Tree", d.Tree, HashPart(d.Tree), algorithms.Params{}),
		}},
		{"SV", []workload{
			wl("sv", "Facebook", d.Facebook, HashPart(d.Facebook), algorithms.Params{}),
			wl("sv", "Twitter", d.Twitter, HashPart(d.Twitter), algorithms.Params{}),
		}},
		{"MSF", []workload{
			wl("msf", "USARoad", d.Road, HashPart(d.Road), algorithms.Params{}),
			wl("msf", "RMAT-W", d.RMATW, HashPart(d.RMATW), algorithms.Params{}),
		}},
		{"SCC", []workload{
			wl("scc", "Wikipedia", d.Wiki, HashPart(d.Wiki), algorithms.Params{}),
			wl("scc", "Wikipedia(P)", d.Wiki, GreedyPart(d.Wiki), algorithms.Params{}),
		}},
	}
	var rows []Row
	for _, grp := range groups {
		for _, w := range grp.ws {
			for _, v := range basicPair(grp.prefix) {
				rows = append(rows, run(w, v))
			}
		}
	}
	return rows
}

// Table5ScatterCombine reproduces the top of Table V: PageRank with
// pregel basic / pregel ghost / channel basic / scatter-combine.
func Table5ScatterCombine(d *Datasets) []Row {
	pr := algorithms.Params{Iterations: prIterations}
	ws := []workload{
		wl("pagerank", "Wikipedia", d.Wiki, HashPart(d.Wiki), pr),
		wl("pagerank", "WebUK", d.WebUK, HashPart(d.WebUK), pr),
	}
	return runAll(ws, []variantRow{
		{"pregel(basic)", algorithms.EnginePregel, "basic"},
		{"pregel(ghost)", algorithms.EnginePregel, "ghost"},
		{"channel(basic)", algorithms.EngineChannel, "basic"},
		{"channel(scatter)", algorithms.EngineChannel, "scatter"},
	})
}

// Table5RequestRespond reproduces the middle of Table V: pointer
// jumping with pregel basic / pregel reqresp / channel basic / channel
// reqresp.
func Table5RequestRespond(d *Datasets) []Row {
	ws := []workload{
		wl("pointerjump", "Tree", d.Tree, HashPart(d.Tree), algorithms.Params{}),
		wl("pointerjump", "Chain", d.Chain, HashPart(d.Chain), algorithms.Params{}),
	}
	return runAll(ws, []variantRow{
		{"pregel(basic)", algorithms.EnginePregel, "basic"},
		{"pregel(reqresp)", algorithms.EnginePregel, "reqresp"},
		{"channel(basic)", algorithms.EngineChannel, "basic"},
		{"channel(reqresp)", algorithms.EngineChannel, "reqresp"},
	})
}

// Table5Propagation reproduces the bottom of Table V: WCC with pregel
// basic / blogel / channel basic / propagation, on the hash-partitioned
// and locality-partitioned graph.
func Table5Propagation(d *Datasets) []Row {
	und := graph.Undirectify(d.Wiki)
	ws := []workload{
		wl("wcc", "Wikipedia", und, HashPart(und), algorithms.Params{}),
		wl("wcc", "Wikipedia(P)", und, GreedyPart(und), algorithms.Params{}),
	}
	return runAll(ws, []variantRow{
		{"pregel(basic)", algorithms.EnginePregel, "basic"},
		{"blogel", algorithms.EngineChannel, "blogel"},
		{"channel(basic)", algorithms.EngineChannel, "basic"},
		{"channel(prop.)", algorithms.EngineChannel, "propagation"},
	})
}

// Table6 reproduces Table VI: the five S-V programs on the sparse and
// dense social graphs.
func Table6(d *Datasets) []Row {
	ws := []workload{
		wl("sv", "Facebook", d.Facebook, HashPart(d.Facebook), algorithms.Params{}),
		wl("sv", "Twitter", d.Twitter, HashPart(d.Twitter), algorithms.Params{}),
	}
	return runAll(ws, []variantRow{
		{"1-pregel(reqresp)", algorithms.EnginePregel, "reqresp"},
		{"2-channel(basic)", algorithms.EngineChannel, "basic"},
		{"3-channel(reqresp)", algorithms.EngineChannel, "reqresp"},
		{"4-channel(scatter)", algorithms.EngineChannel, "scatter"},
		{"5-channel(both)", algorithms.EngineChannel, "both"},
	})
}

// Table7 reproduces Table VII: Min-Label SCC with pregel basic /
// channel basic / channel propagation on the hash and locality
// partitions.
func Table7(d *Datasets) []Row {
	ws := []workload{
		wl("scc", "Wikipedia", d.Wiki, HashPart(d.Wiki), algorithms.Params{}),
		wl("scc", "Wikipedia(P)", d.Wiki, GreedyPart(d.Wiki), algorithms.Params{}),
	}
	return runAll(ws, []variantRow{
		{"1-pregel(basic)", algorithms.EnginePregel, "basic"},
		{"2-channel(basic)", algorithms.EngineChannel, "basic"},
		{"3-channel(prop.)", algorithms.EngineChannel, "propagation"},
	})
}
