package harness

import (
	"fmt"
	"testing"
)

// The table tests run every entry of their table at test scale — together
// the end-to-end integration test of the whole reproduction pipeline —
// and assert every claim of the table on each of its datasets.

func TestTable4RunsAndOrdersCorrectly(t *testing.T) { checkTable(t, "4", 24) }

func TestTable5Sections(t *testing.T) {
	checkTable(t, "5-scatter", 8)
	checkTable(t, "5-reqresp", 8)
	checkTable(t, "5-prop", 8)
}

func TestTable6Composition(t *testing.T) { checkTable(t, "6", 10) }

func TestTable7(t *testing.T) { checkTable(t, "7", 6) }

// tables are the tables a test above checks.
var tables = map[string]bool{"4": true, "5-scatter": true, "5-reqresp": true, "5-prop": true, "6": true, "7": true}

// entryKey names an entry's row: programs are unique per table and input.
type entryKey struct{ table, program, dataset, place string }

func keyOf(e Entry) entryKey { return entryKey{e.Table, e.Program, e.Dataset, e.Place} }

// TestPaperClaims checks that Entries and Claims fit together: every row
// is unique, every table is checked by a table test, and every claim
// compares two rows present on the same datasets.
func TestPaperClaims(t *testing.T) {
	rows := map[entryKey]bool{}
	for _, e := range Entries {
		if rows[keyOf(e)] {
			t.Fatalf("two entries for %v", keyOf(e))
		}
		rows[keyOf(e)] = true
	}
	for _, c := range Claims {
		if !tables[c.Table] {
			t.Errorf("claim on table %s, which no table test checks", c.Table)
		}
		datasets := 0
		for _, e := range Entries {
			if e.Table != c.Table || e.Program != c.Opt {
				continue
			}
			base := keyOf(e)
			base.program = c.Base
			if !rows[base] {
				t.Errorf("table %s has no %s row on %s/%s", c.Table, c.Base, e.Dataset, e.Place)
			}
			datasets++
		}
		if datasets == 0 {
			t.Errorf("table %s has no %s row", c.Table, c.Opt)
		}
	}
	for _, e := range Entries {
		if !tables[e.Table] {
			t.Errorf("entry %v is on table %s, which no table test checks", keyOf(e), e.Table)
		}
	}
}

// checkTable runs table, expecting want rows, and asserts its claims.
func checkTable(t *testing.T, table string, want int) {
	t.Helper()
	d := Load(ScaleTest)
	rows := Run(d, table)
	if len(rows) != want {
		t.Fatalf("table %s: %d rows, want %d", table, len(rows), want)
	}
	violated, unasserted := violations(d, table, rows, Workers)
	for _, v := range violated {
		t.Error(v)
	}
	for _, u := range unasserted {
		t.Error("at the paper's worker count:", u)
	}
}

// violations checks every claim on table ("" for all) against rows, the
// rows of its entries in order, run on d with workers workers. It
// describes each comparison that fails and each one a claim's scale
// bound leaves unasserted.
func violations(d *Datasets, table string, rows []Row, workers int) (violated, unasserted []string) {
	var entries []Entry
	byKey := map[entryKey]Row{}
	for _, e := range Entries {
		if table == "" || e.Table == table {
			byKey[keyOf(e)] = rows[len(entries)]
			entries = append(entries, e)
		}
	}
	value := func(m Metric, r Row) int64 {
		switch m {
		case Supersteps:
			return int64(r.Supersteps)
		case Model:
			return int64(r.Model)
		}
		return r.NetBytes
	}
	for _, c := range Claims {
		if table != "" && c.Table != table {
			continue
		}
		for _, e := range entries {
			if e.Table != c.Table || e.Program != c.Opt {
				continue
			}
			base := keyOf(e)
			base.program = c.Base
			b, ok := byKey[base]
			if !ok {
				violated = append(violated, fmt.Sprintf("table %s has no %s row on %s/%s", c.Table, c.Base, e.Dataset, e.Place))
				continue
			}
			opt := byKey[keyOf(e)]
			what := fmt.Sprintf("table %s on %s at %d workers: %s %s %d vs %s %d", c.Table, opt.Dataset,
				workers, c.Opt, c.Metric, value(c.Metric, opt), c.Base, value(c.Metric, b))
			if per := d.byName(e.Dataset).NumVertices() / workers; per < c.MinPerWorker {
				unasserted = append(unasserted, fmt.Sprintf("%s: %d vertices per worker, the claim holds from %d", what, per, c.MinPerWorker))
			} else if value(c.Metric, opt) >= value(c.Metric, b) {
				violated = append(violated, what)
			}
		}
	}
	return violated, unasserted
}

// TestClaimsAcrossWorkers asserts every claim beyond the paper's eight
// workers: at 4, 16 and 32, on the test-scale datasets and on a second
// draw of them. Aggregator partials that rode the round buffers as
// frames of their own once broke channel(basic) < pregel(basic) at 16
// and 32 workers on the hash-placed web graphs. A comparison below its
// claim's scale bound is logged with both values, not dropped.
func TestClaimsAcrossWorkers(t *testing.T) {
	for _, offset := range []int64{0, 1000} {
		d := load(ScaleTest, offset)
		for _, m := range []int{4, 16, 32} {
			r := NewRunner(d)
			r.Workers = m
			violated, unasserted := violations(d, "", r.Run(""), m)
			for _, v := range violated {
				t.Errorf("seed offset %d: %s", offset, v)
			}
			for _, u := range unasserted {
				t.Logf("seed offset %d: not asserted: %s", offset, u)
			}
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
