package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the method the driver judges
// spreads with); fewer than two values have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints every end-to-end metric × workload of b against a
// (the baseline) and reports whether any got worse than its bound.
//
//	ok          b's median is within the bound of a's
//	worse       b's median is worse than a's by more than the bound
//	unresolved  the run-to-run spread of either side is wider than the
//	            bound, so the medians cannot settle it
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := loadResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return false, err
	}
	for _, side := range []*resultFile{a, b} {
		if side.Env.Noisy {
			fmt.Fprintf(w, "note: seed %d file started under load %.2f (noisy)\n", side.Seed, side.Env.Load1)
		}
	}
	byName := make(map[string]*workloadResult, len(b.Workloads))
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-20s %-18s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "a median", "b median", "delta", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, d := range a.EndToEnd {
			va, vb := valuesOf(wa, d.Name), valuesOf(wb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// delta > 0 always means b is worse
			delta := (mb - ma) / ma
			if d.Better == "higher" {
				delta = -delta
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case delta > d.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-20s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s (n=%d,%d)\n",
				wa.Name, d.Name, ma, mb, delta*100, sp*100, d.Bound*100, verdict, len(va), len(vb))
		}
		fa, fb := failedShare(wa), failedShare(wb)
		verdict := "ok"
		if fb > fa {
			verdict = "worse"
			worse = true
		}
		fmt.Fprintf(w, "%-20s %-18s %12.4f %12.4f %33s  %s\n", wa.Name, "error_share", fa, fb, "any increase", verdict)
	}
	return worse, nil
}

// failedShare is failed over attempted jobs across a workload's runs.
func failedShare(wr *workloadResult) float64 {
	att, bad := 0, 0
	for _, r := range wr.Runs {
		att, bad = att+r.Attempted, bad+r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(bad) / float64(att)
}
