package harness

import "testing"

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
// compares two rows present on the same datasets. It runs the entries no
// table test covers.
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
	unchecked := map[string]int{}
	for _, e := range Entries {
		if !tables[e.Table] {
			unchecked[e.Table]++
		}
	}
	d := Load(ScaleTest)
	for table, n := range unchecked {
		if got := len(Run(d, table)); got != n {
			t.Errorf("table %s: %d rows, want %d", table, got, n)
		}
	}
}

// checkTable runs table, expecting want rows, and asserts its claims.
func checkTable(t *testing.T, table string, want int) {
	t.Helper()
	rows := Run(Load(ScaleTest), table)
	if len(rows) != want {
		t.Fatalf("table %s: %d rows, want %d", table, len(rows), want)
	}
	var entries []Entry
	byKey := map[entryKey]Row{}
	for _, e := range Entries {
		if e.Table == table {
			byKey[keyOf(e)] = rows[len(entries)]
			entries = append(entries, e)
		}
	}
	value := func(m Metric, r Row) int64 {
		if m == Supersteps {
			return int64(r.Supersteps)
		}
		return r.NetBytes
	}
	for _, c := range Claims {
		if c.Table != table {
			continue
		}
		for _, e := range entries {
			if e.Program != c.Opt {
				continue
			}
			base := keyOf(e)
			base.program = c.Base
			b, ok := byKey[base]
			if !ok {
				t.Fatalf("table %s has no %s row on %s/%s", table, c.Base, e.Dataset, e.Place)
			}
			opt := byKey[keyOf(e)]
			if value(c.Metric, opt) >= value(c.Metric, b) {
				t.Errorf("table %s on %s: %s %s %d >= %s %d", table, opt.Dataset,
					c.Opt, c.Metric, value(c.Metric, opt), c.Base, value(c.Metric, b))
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
