package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json this package must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestNamesMatchBenchmarkJSON holds the lists in this package equal to the
// contract file: same workloads with the same reasons, same metrics with
// the same units, directions and bounds, in the same order.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", b.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, '_', '.' and '-'", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: reason is %d characters long", w.name, len(w.why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
}

// TestSmoke drives all five workloads at tiny scale, untraced once and
// traced twice with one seed.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const seed, seconds = 7, 0.3
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			plain, err := runWorkload(ctx, def, tinyScale, seed, seconds, false)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Failed != 0 || !plain.Correct || plain.Attempted == 0 {
				t.Errorf("untraced: %d of %d operations failed", plain.Failed, plain.Attempted)
			}
			for _, d := range endToEnd {
				v, ok := plain.EndToEnd[d.Name]
				switch {
				case !ok:
					t.Errorf("end-to-end metric %s was not reported", d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: unit %q, want %q", d.Name, v.Unit, d.Unit)
				case !(v.Value > 0):
					t.Errorf("%s = %v, want a positive number", d.Name, v.Value)
				}
			}
			if len(plain.EndToEnd) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics reported, %d declared", len(plain.EndToEnd), len(endToEnd))
			}

			var traced [2]*workloadResult
			for k := range traced {
				if traced[k], err = runWorkload(ctx, def, tinyScale, seed, seconds, true); err != nil {
					t.Fatal(err)
				}
				if traced[k].Failed != 0 || !traced[k].Correct {
					t.Errorf("traced run %d: %d of %d operations failed", k, traced[k].Failed, traced[k].Attempted)
				}
				if err := checkSpans(traced[k].spans); err != nil {
					t.Errorf("traced run %d: %v", k, err)
				}
				if len(traced[k].PerLayer) != len(perLayer) {
					t.Errorf("%d per-layer metrics reported, %d declared", len(traced[k].PerLayer), len(perLayer))
				}
			}
			for _, d := range perLayer {
				a, b := traced[0].PerLayer[d.Name], traced[1].PerLayer[d.Name]
				if exactCount(d.Name) && a.Value != b.Value {
					t.Errorf("exact count %s differs between two runs of one seed: %v and %v", d.Name, a.Value, b.Value)
				}
			}
			if v := traced[0].PerLayer["trace.spans"].Value; v == 0 {
				t.Error("the traced run recorded no spans")
			}
			if def.name == "serve-cached" {
				checkNesting(t, traced[0].spans)
			}
		})
	}
}

// checkNesting verifies the socket rung of serve-cached: every request that
// missed the cache is socket ⊃ serve ⊃ engine, and the three self times
// sum to the measured round trip within a tenth.
func checkNesting(t *testing.T, spans []span) {
	t.Helper()
	self := selfTimes(spans)
	total := map[int]time.Duration{} // root span id → sum of self times beneath it
	depth := map[int]int{}
	root := func(i int) (int, int) {
		d := 0
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
			d++
		}
		return i, d
	}
	for i := range spans {
		if spans[i].Rung != "socket.miss" {
			continue
		}
		r, d := root(i)
		total[r] += self[i]
		depth[r] = max(depth[r], d)
		if want := []string{"socket", "serve", "engine"}[d]; spans[i].Layer != want {
			t.Errorf("span %d at depth %d is of layer %q, want %q", i, d, spans[i].Layer, want)
		}
	}
	if len(total) == 0 {
		t.Fatal("no socket.miss spans")
	}
	for r, sum := range total {
		rt := spans[r].duration()
		if depth[r] != 2 {
			t.Errorf("request of span %d nests %d deep, want socket, serve and engine", r, depth[r]+1)
		}
		if diff := (sum - rt).Abs(); diff > rt/10 {
			t.Errorf("request of span %d: self times sum to %v, round trip %v", r, sum, rt)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.95, 950}, {0.99, 990}} {
		if got := h.quantileUS(c.q); got < c.want*0.98 || got > c.want*1.02 {
			t.Errorf("quantile %v = %v us, want about %v", c.q, got, c.want)
		}
	}
	if got := h.shareWithin(250 * time.Microsecond); got < 0.24 || got > 0.26 {
		t.Errorf("share within 250us = %v, want about 0.25", got)
	}
	// The same rule as Python's statistics.quantiles(xs, n=4).
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	mk := func(p50 float64) *resultFile {
		w := newResult("graph-point")
		w.EndToEnd.set(endToEnd, "query_p50_us", p50)
		w.Slices["query_p50_us"] = sliceSpread{Q1: p50 * 0.99, Median: p50, Q3: p50 * 1.01}
		return &resultFile{Schema: resultSchema, Workloads: []*workloadResult{w}}
	}
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	if compareResults(devNull, mk(100), mk(104)) {
		t.Error("a 4% slowdown inside the bound was called a regression")
	}
	if !compareResults(devNull, mk(100), mk(150)) {
		t.Error("a 50% slowdown was not called a regression")
	}
	if compareResults(devNull, mk(150), mk(100)) {
		t.Error("a speed-up was called a regression")
	}
}
