package harness

import (
	"strings"
	"testing"
)

// The harness tests run every table at test scale: this is the
// end-to-end integration test of the whole reproduction pipeline.

func TestTable4RunsAndOrdersCorrectly(t *testing.T) {
	d := Load(ScaleTest)
	rows := Table4(d)
	if len(rows) != 24 {
		t.Fatalf("rows=%d want 24", len(rows))
	}
	// every pregel/channel pair: channel must not use more network bytes
	// for the message-heavy algorithms (SV, MSF, SCC per §V-A)
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Program+"/"+r.Dataset] = r
	}
	for _, alg := range []string{"SV", "MSF", "SCC"} {
		for _, r := range rows {
			if !strings.HasPrefix(r.Program, alg+"-pregel") {
				continue
			}
			ch, ok := byKey[alg+"-channel/"+r.Dataset]
			if !ok {
				t.Fatalf("missing channel row for %s/%s", alg, r.Dataset)
			}
			if ch.NetBytes >= r.NetBytes {
				t.Errorf("%s/%s: channel bytes %d >= pregel bytes %d",
					alg, r.Dataset, ch.NetBytes, r.NetBytes)
			}
		}
	}
}

func TestTable5Sections(t *testing.T) {
	d := Load(ScaleTest)

	sc := Table5ScatterCombine(d)
	if len(sc) != 8 {
		t.Fatalf("scatter rows=%d", len(sc))
	}
	// ghost mode must reduce bytes vs pregel basic on power-law graphs
	for i := 0; i+3 < len(sc); i += 4 {
		basic, ghost := sc[i], sc[i+1]
		if ghost.NetBytes >= basic.NetBytes {
			t.Errorf("%s: ghost bytes %d >= basic %d", basic.Dataset, ghost.NetBytes, basic.NetBytes)
		}
		// Table V's bytes column: scatter-combine ships each destination
		// index once per job, the combined-message channel once per value
		chanBasic, scatter := sc[i+2], sc[i+3]
		if scatter.NetBytes >= chanBasic.NetBytes {
			t.Errorf("%s: scatter bytes %d >= channel basic %d", basic.Dataset, scatter.NetBytes, chanBasic.NetBytes)
		}
	}

	rr := Table5RequestRespond(d)
	if len(rr) != 8 {
		t.Fatalf("reqresp rows=%d", len(rr))
	}
	for i := 0; i+3 < len(rr); i += 4 {
		basic, chanRR := rr[i], rr[i+3]
		// the channel reqresp halves supersteps vs the 2-step protocol
		if chanRR.Supersteps >= basic.Supersteps {
			t.Errorf("%s: reqresp supersteps %d >= basic %d", basic.Dataset, chanRR.Supersteps, basic.Supersteps)
		}
		// and reduces message volume (dedup + bare-value replies)
		if chanRR.NetBytes >= basic.NetBytes {
			t.Errorf("%s: reqresp bytes %d >= basic %d", basic.Dataset, chanRR.NetBytes, basic.NetBytes)
		}
	}

	prop := Table5Propagation(d)
	if len(prop) != 8 {
		t.Fatalf("prop rows=%d", len(prop))
	}
	for i := 0; i+3 < len(prop); i += 4 {
		basic, p := prop[i], prop[i+3]
		if p.Supersteps >= basic.Supersteps {
			t.Errorf("%s: propagation supersteps %d >= basic %d", basic.Dataset, p.Supersteps, basic.Supersteps)
		}
	}
}

func TestTable6Composition(t *testing.T) {
	d := Load(ScaleTest)
	rows := Table6(d)
	if len(rows) != 10 {
		t.Fatalf("rows=%d", len(rows))
	}
	// program 5 (both) must use the least network volume of the channel
	// variants on both graphs (the composition payoff)
	for i := 0; i+4 < len(rows); i += 5 {
		basic, reqresp, both := rows[i+1], rows[i+2], rows[i+4]
		if both.NetBytes >= basic.NetBytes {
			t.Errorf("%s: composed bytes %d >= basic %d", basic.Dataset, both.NetBytes, basic.NetBytes)
		}
		// adding the scatter channel to the reqresp program must pay in
		// bytes too, not only in time
		if both.NetBytes >= reqresp.NetBytes {
			t.Errorf("%s: composed bytes %d >= reqresp-only %d", basic.Dataset, both.NetBytes, reqresp.NetBytes)
		}
	}
}

func TestTable7(t *testing.T) {
	d := Load(ScaleTest)
	rows := Table7(d)
	if len(rows) != 6 {
		t.Fatalf("rows=%d", len(rows))
	}
	for i := 0; i+2 < len(rows); i += 3 {
		pregelB, chanB, chanP := rows[i], rows[i+1], rows[i+2]
		if chanB.NetBytes >= pregelB.NetBytes {
			t.Errorf("%s: channel bytes %d >= pregel %d", pregelB.Dataset, chanB.NetBytes, pregelB.NetBytes)
		}
		if chanP.Supersteps >= chanB.Supersteps {
			t.Errorf("%s: prop supersteps %d >= basic %d", pregelB.Dataset, chanP.Supersteps, chanB.Supersteps)
		}
	}
}

func TestDatasetsShapes(t *testing.T) {
	d := Load(ScaleTest)
	if !d.Facebook.Undirected || !d.Twitter.Undirected {
		t.Error("social graphs must be undirected")
	}
	if d.Twitter.AvgDegree() <= 2*d.Facebook.AvgDegree() {
		t.Errorf("twitter density %.1f not well above facebook %.1f",
			d.Twitter.AvgDegree(), d.Facebook.AvgDegree())
	}
	if !d.Road.Weighted() || !d.RMATW.Weighted() {
		t.Error("MSF datasets must be weighted")
	}
	if d.Chain.NumEdges() != d.Chain.NumVertices()-1 {
		t.Error("chain malformed")
	}
}
