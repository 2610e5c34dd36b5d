package main

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/frag"
	"repro/internal/graph"
	"repro/internal/harness"
)

// fidelityRow is one claim of the paper's Tables IV–VII: program opt
// should beat program base, in wall time and in bytes, summed over the
// table's datasets.
type fidelityRow struct {
	name, table, opt, base string
}

var fidelityRows = []fidelityRow{
	{"pr_scatter_vs_basic", "5-scatter", "channel(scatter)", "channel(basic)"},
	{"pr_channel_vs_pregel", "5-scatter", "channel(basic)", "pregel(basic)"},
	{"pj_reqresp_vs_basic", "5-reqresp", "channel(reqresp)", "channel(basic)"},
	{"pj_channel_vs_pregel", "5-reqresp", "channel(basic)", "pregel(basic)"},
	{"wcc_prop_vs_basic", "5-prop", "channel(prop.)", "channel(basic)"},
	{"sv_both_vs_basic", "6", "5-channel(both)", "2-channel(basic)"},
	{"sv_both_vs_pregel_reqresp", "6", "5-channel(both)", "1-pregel(reqresp)"},
	{"scc_prop_vs_basic", "7", "3-channel(prop.)", "2-channel(basic)"},
	{"msf_channel_vs_pregel", "msf", "MSF-channel", "MSF-pregel"},
}

// fidelityDatasets are the harness stand-ins two scales under
// harness.ScaleBench, seeded by the run: three passes of five tables
// have to fit in a few seconds of the traced pass.
func fidelityDatasets(seed int64, smoke bool) *harness.Datasets {
	shrink, n, side := 0, 50_000, 150
	if smoke {
		shrink, n, side = 3, 2000, 40
	}
	rmat := func(scale, ef int, s int64) *graph.Graph {
		return graph.RMAT(scale-shrink, ef, seed+s, graph.RMATOptions{NoSelfLoops: true})
	}
	return &harness.Datasets{
		Wiki:     rmat(12, 10, 1),
		WebUK:    rmat(13, 16, 2),
		Facebook: graph.SocialRMAT(12-shrink, 2, seed+3),
		Twitter:  graph.SocialRMAT(10-shrink, 24, seed+4),
		Chain:    graph.Chain(n),
		Tree:     graph.RandomTree(n, seed+5),
		Road:     graph.Grid(side, side, 1000, seed+6),
		RMATW: graph.Undirectify(graph.RMAT(11-shrink, 8, seed+7,
			graph.RMATOptions{Weighted: true, MaxWeight: 1000, NoSelfLoops: true})),
	}
}

// msfRows is Table IV's MSF group on its own; running the whole table
// for one pair of rows would triple the pass.
func msfRows(d *harness.Datasets) ([]harness.Row, error) {
	spec, _ := algorithms.Lookup("msf") // registered at init
	var rows []harness.Row
	for _, ds := range []struct {
		name string
		g    *graph.Graph
	}{{"USARoad", d.Road}, {"RMAT-W", d.RMATW}} {
		part := harness.HashPart(ds.g)
		opts := algorithms.Options{Part: part, Frags: frag.Build(ds.g, part), MaxSupersteps: maxSupersteps}
		for _, v := range []struct {
			program string
			eng     algorithms.Engine
		}{{"MSF-pregel", algorithms.EnginePregel}, {"MSF-channel", algorithms.EngineChannel}} {
			res, err := spec.Run(v.eng, algorithms.DefaultVariant, ds.g, opts, algorithms.Params{})
			if err != nil {
				return nil, fmt.Errorf("msf %s on %s: %w", v.eng, ds.name, err)
			}
			rows = append(rows, harness.Row{Program: v.program, Dataset: ds.name,
				WallTime: res.Metrics.WallTime, NetBytes: res.Metrics.NetBytes})
		}
	}
	return rows, nil
}

// fidelityPass runs every table once. The harness panics on a failed
// row; that becomes this pass's error.
func fidelityPass(d *harness.Datasets) (tables map[string][]harness.Row, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("harness: %v", p)
		}
	}()
	msf, err := msfRows(d)
	if err != nil {
		return nil, err
	}
	return map[string][]harness.Row{
		"5-scatter": harness.Table5ScatterCombine(d),
		"5-reqresp": harness.Table5RequestRespond(d),
		"5-prop":    harness.Table5Propagation(d),
		"6":         harness.Table6(d),
		"7":         harness.Table7(d),
		"msf":       msf,
	}, nil
}

// programTotals sums one program's wall time and bytes over a table's
// datasets.
func programTotals(rows []harness.Row, program string) (wallNS, bytes float64) {
	for _, row := range rows {
		if row.Program == program {
			wallNS += float64(row.WallTime)
			bytes += float64(row.NetBytes)
		}
	}
	return wallNS, bytes
}

// measureFidelity reports, for every paper claim, the optimised
// program's wall time over its baseline's (median of the passes), and
// counts the claims that do not hold: a time ratio of 1 or more, or
// more bytes than the baseline.
func (r *layerRun) measureFidelity(seed int64) error {
	d := fidelityDatasets(seed, r.p.smoke)
	timeRatios := make(map[string][]float64)
	byteRatios := make(map[string]float64)
	for pass := 0; pass < r.p.fidelity; pass++ {
		tables, err := fidelityPass(d)
		r.op(err)
		if err != nil {
			return err
		}
		for _, row := range fidelityRows {
			optWall, optBytes := programTotals(tables[row.table], row.opt)
			baseWall, baseBytes := programTotals(tables[row.table], row.base)
			if optWall == 0 || baseWall == 0 || baseBytes == 0 {
				return fmt.Errorf("harness table %s has no rows %q and %q", row.table, row.opt, row.base)
			}
			timeRatios[row.name] = append(timeRatios[row.name], optWall/baseWall)
			byteRatios[row.name] = optBytes / baseBytes // the same on every pass
		}
	}
	slow, fat := 0, 0
	for _, row := range fidelityRows {
		ratio := median(timeRatios[row.name])
		r.set("harness."+row.name+"_ratio", ratio)
		if ratio >= 1 {
			slow++
		}
		if byteRatios[row.name] > 1 {
			fat++
		}
	}
	r.set("harness.rows_violated", float64(slow))
	r.set("harness.bytes_rows_violated", float64(fat))
	return nil
}
