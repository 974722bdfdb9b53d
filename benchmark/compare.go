package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// worsening is how much worse b is than a as a share of a, signed so that
// positive is worse whichever direction the metric prefers.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	rel := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// exactCount reports whether a per-layer metric is a count the program
// makes over the single-client fixed-list pass, which must repeat exactly
// for one seed.
func exactCount(name string) bool {
	switch {
	case strings.HasSuffix(name, ".expanded_per_query"),
		strings.HasSuffix(name, ".norm_io_per_query"),
		strings.HasPrefix(name, "pagefile."),
		strings.HasSuffix(name, "cross_ratio"),
		strings.HasSuffix(name, "cross_frontier_per_query"),
		strings.HasSuffix(name, "index_bytes_ratio"),
		name == "contact.count":
		return true
	}
	return false
}

// overlap reports whether the slice quartile ranges of the two runs meet.
func overlap(a, b sliceSpread) bool { return a.Q1 <= b.Q3 && b.Q1 <= a.Q3 }

// compareFiles prints, per end-to-end metric and workload, the change
// from old to new against the metric's bound, with the per-layer changes
// beneath, and returns 1 when some metric regressed.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldF, err := readResultFile(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if compareResults(w, oldF, newF) {
		return 1
	}
	return 0
}

func compareResults(w io.Writer, oldF, newF *resultFile) (regressed bool) {
	fmt.Fprintf(w, "old: commit %s, seed %d, %gs windows\nnew: commit %s, seed %d, %gs windows\n\n",
		oldF.Env.Commit, oldF.Seed, oldF.Seconds, newF.Env.Commit, newF.Seed, newF.Seconds)
	for _, nw := range newF.Workloads {
		ow := oldF.workload(nw.Workload)
		if ow == nil {
			fmt.Fprintf(w, "%s: not in the old file\n\n", nw.Workload)
			continue
		}
		fmt.Fprintf(w, "%s\n", nw.Workload)
		if nw.Failed > ow.Failed {
			fmt.Fprintf(w, "  REGRESSION  failed operations %d -> %d\n", ow.Failed, nw.Failed)
			regressed = true
		}
		for _, d := range endToEnd {
			a, okA := ow.EndToEnd[d.Name]
			b, okB := nw.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			rel := worsening(d, a.Value, b.Value)
			verdict := "same"
			switch {
			case rel > d.Bound:
				verdict = "REGRESSION"
				// A slice-median metric whose slices overlap between the
				// two runs is not resolved by one pair of runs.
				if so, ok := ow.Slices[d.Name]; ok && overlap(so, nw.Slices[d.Name]) {
					verdict = "unresolved"
				} else {
					regressed = true
				}
			case rel < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "  %-10s  %-20s %12s -> %12s %-5s %+7.1f%% worse (bound %.0f%%)\n",
				verdict, d.Name, formatValue(a.Value), formatValue(b.Value), d.Unit, 100*rel, 100*d.Bound)
		}
		for _, d := range perLayer {
			a, b := ow.PerLayer[d.Name], nw.PerLayer[d.Name]
			if a.Value == b.Value {
				continue
			}
			note := ""
			if exactCount(d.Name) {
				note = "  (exact count)"
			}
			fmt.Fprintf(w, "      %-34s %12s -> %12s %-5s %+7.1f%%%s\n",
				d.Name, formatValue(a.Value), formatValue(b.Value), d.Unit, 100*worsening(d, a.Value, b.Value), note)
		}
		fmt.Fprintln(w)
	}
	return regressed
}

// printRepeat prints how far repeated sets of the same code differ, per
// end-to-end metric and workload, beside the bound; it reports whether
// some pair differs by more than its bound or an exact count differs.
func printRepeat(w io.Writer, files []*resultFile) (outside bool) {
	fmt.Fprintf(w, "repeatability over %d sets (largest difference from the first set, either direction)\n", len(files))
	first := files[0]
	for _, fw := range first.Workloads {
		fmt.Fprintf(w, "%s\n", fw.Workload)
		for _, d := range endToEnd {
			a := fw.EndToEnd[d.Name].Value
			var worst float64
			for _, f := range files[1:] {
				if ow := f.workload(fw.Workload); ow != nil {
					worst = max(worst, math.Abs(worsening(d, a, ow.EndToEnd[d.Name].Value)))
				}
			}
			mark := "within"
			if worst > d.Bound {
				mark, outside = "OUTSIDE", true
			}
			fmt.Fprintf(w, "  %-8s %-20s %12s %-5s  differs %5.1f%%  (bound %.0f%%)\n",
				mark, d.Name, formatValue(a), d.Unit, 100*worst, 100*d.Bound)
		}
		for _, d := range perLayer {
			if !exactCount(d.Name) {
				continue
			}
			a := fw.PerLayer[d.Name].Value
			for _, f := range files[1:] {
				if ow := f.workload(fw.Workload); ow != nil && ow.PerLayer[d.Name].Value != a {
					fmt.Fprintf(w, "  OUTSIDE  %-20s exact count %v became %v\n", d.Name, a, ow.PerLayer[d.Name].Value)
					outside = true
				}
			}
		}
	}
	return outside
}
