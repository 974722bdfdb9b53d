package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef is one row of BENCHMARK.json: the test in this directory holds
// the two lists below equal to that file.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, measured with tracing off.
//
// The bounds follow what this sandbox can resolve in a 10 s window, measured
// over ten seeds per workload (README, "Bounds"): the clock-time metrics
// spread by up to 19 % of their median between runs of the same code, the
// ratios and the heap by about 1 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_tail_us", "us", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"within_limit_share", "ratio", "higher", 0.05},
	{"cpu_us_per_query", "us", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.05},
}

// perLayer are the metrics of single layers, from the traced run. A
// workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{Name: "contact.extract_s", Unit: "s", Better: "lower"},
	{Name: "contact.count", Unit: "count", Better: "lower"},
	{Name: "dn.build_s", Unit: "s", Better: "lower"},

	{Name: "reachgraph.build_s", Unit: "s", Better: "lower"},
	{Name: "reachgraph.point_p50_us", Unit: "us", Better: "lower"},
	{Name: "reachgraph.point_p95_us", Unit: "us", Better: "lower"},
	{Name: "reachgraph.expanded_per_query", Unit: "count", Better: "lower"},
	{Name: "reachgraph.mem_point_p50_us", Unit: "us", Better: "lower"},

	{Name: "reachgrid.build_s", Unit: "s", Better: "lower"},
	{Name: "reachgrid.point_p50_us", Unit: "us", Better: "lower"},
	{Name: "reachgrid.point_p95_us", Unit: "us", Better: "lower"},
	{Name: "reachgrid.expanded_per_query", Unit: "count", Better: "lower"},

	{Name: "pagefile.norm_io_per_query", Unit: "pages", Better: "lower"},
	{Name: "pagefile.index_bytes_per_contact", Unit: "bytes", Better: "lower"},
	{Name: "pagefile.random_reads_per_query", Unit: "pages", Better: "lower"},
	{Name: "pagefile.seq_reads_per_query", Unit: "pages", Better: "lower"},
	{Name: "pagefile.buffer_hits_per_query", Unit: "pages", Better: "higher"},
	{Name: "pagefile.pool_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "pagefile.evictions_per_query", Unit: "pages", Better: "lower"},
	{Name: "pagefile.index_pages", Unit: "pages", Better: "lower"},

	{Name: "engine.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "engine.grid_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.bytes_per_query", Unit: "bytes", Better: "lower"},
	{Name: "engine.qps_1client", Unit: "1/s", Better: "higher"},
	{Name: "engine.scaling_2c", Unit: "ratio", Better: "higher"},

	{Name: "segmented.point_p50_us", Unit: "us", Better: "lower"},
	{Name: "segmented.delta_p50_us", Unit: "us", Better: "lower"},
	{Name: "segmented.norm_io_per_query", Unit: "pages", Better: "lower"},
	{Name: "segmented.expanded_per_query", Unit: "count", Better: "lower"},
	{Name: "segmented.set_p50_us", Unit: "us", Better: "lower"},

	{Name: "bidir.point_p50_us", Unit: "us", Better: "lower"},
	{Name: "bidir.expanded_per_query", Unit: "count", Better: "lower"},
	{Name: "bidir.norm_io_per_query", Unit: "pages", Better: "lower"},

	{Name: "shard.build_s", Unit: "s", Better: "lower"},
	{Name: "shard.set_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.delta_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.cross_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.cross_frontier_per_query", Unit: "count", Better: "lower"},
	{Name: "shard.index_bytes_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.hash_set_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.hash_spatial_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.hash_cross_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.hash_cross_frontier_per_query", Unit: "count", Better: "lower"},
	{Name: "shard.hash_index_bytes_ratio", Unit: "ratio", Better: "lower"},

	{Name: "live.preload_s", Unit: "s", Better: "lower"},
	{Name: "live.preload_instants_per_s", Unit: "1/s", Better: "higher"},
	{Name: "live.point_p50_us", Unit: "us", Better: "lower"},
	{Name: "live.delta_p50_us", Unit: "us", Better: "lower"},
	{Name: "live.dirty_point_p50_us", Unit: "us", Better: "lower"},
	{Name: "live.ingest_instant_p50_us", Unit: "us", Better: "lower"},
	{Name: "live.ingest_post_p50_us", Unit: "us", Better: "lower"},
	{Name: "live.ingest_max_ms", Unit: "ms", Better: "lower"},
	{Name: "live.query_max_ms", Unit: "ms", Better: "lower"},
	{Name: "live.seals", Unit: "count", Better: "lower"},
	{Name: "live.compactions", Unit: "count", Better: "lower"},
	{Name: "live.late_events", Unit: "count", Better: "higher"},

	{Name: "serve.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.hit_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "bytes", Better: "lower"},

	{Name: "socket.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "socket.ingest_body_kb", Unit: "KiB", Better: "lower"},

	{Name: "loadgen.lateness_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.achieved_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.positive_share", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// metricValue is a measured number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps names to values. set refuses a name that is not in defs,
// so a typo cannot add a metric BENCHMARK.json does not know.
type metricSet map[string]metricValue

func unitOf(defs []metricDef, name string) (string, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit, true
		}
	}
	return "", false
}

func (m metricSet) set(defs []metricDef, name string, v float64) {
	unit, ok := unitOf(defs, name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	m[name] = metricValue{Value: v, Unit: unit}
}

// complete fills every declared metric the workload did not measure with 0.
func (m metricSet) complete(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metricValue{Unit: d.Unit}
		}
	}
}

// sliceSpread is the quartiles of a per-slice series of one window.
type sliceSpread struct {
	Q1, Median, Q3 float64
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Workload  string    `json:"workload"`
	Correct   bool      `json:"correct"`
	Valid     bool      `json:"valid"` // false when the load generator ran too late to trust the timings
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	// Slices holds the quartiles over the window's slices of the two
	// metrics reported as slice medians.
	Slices map[string]sliceSpread `json:"slices,omitempty"`
	// Info carries what qualifies the numbers: sample counts, the tail
	// percentile, the latency limit, the share of positive queries.
	Info map[string]float64 `json:"info,omitempty"`

	spans []span
}

func newResult(workload string) *workloadResult {
	return &workloadResult{
		Workload: workload, Correct: true, Valid: true,
		EndToEnd: metricSet{}, PerLayer: metricSet{},
		Slices: map[string]sliceSpread{}, Info: map[string]float64{},
	}
}

func (r *workloadResult) count(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.Correct = false
	}
}

func (r *workloadResult) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// envBlock stamps a result file with where it was measured.
type envBlock struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// resultFile is results.json.
type resultFile struct {
	Schema    string            `json:"schema"`
	Env       envBlock          `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadResult `json:"workloads"`
}

func (f *resultFile) workload(name string) *workloadResult {
	for _, w := range f.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

// printTable prints every metric by name with its unit, one column per
// workload.
func printTable(w io.Writer, f *resultFile) {
	names := make([]string, len(f.Workloads))
	for i, wl := range f.Workloads {
		names[i] = wl.Workload
	}
	row := func(label, unit string, cell func(*workloadResult) string) {
		fmt.Fprintf(w, "%-34s %-6s", label, unit)
		for _, wl := range f.Workloads {
			fmt.Fprintf(w, " %14s", cell(wl))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-34s %-6s", "metric", "unit")
	for _, n := range names {
		fmt.Fprintf(w, " %14s", n)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 41+15*len(names)))
	section := func(title string, defs []metricDef, pick func(*workloadResult) metricSet) {
		measured := false
		for _, wl := range f.Workloads {
			measured = measured || len(pick(wl)) > 0
		}
		if !measured {
			return
		}
		fmt.Fprintf(w, "[%s]\n", title)
		for _, d := range defs {
			row(d.Name, d.Unit, func(wl *workloadResult) string {
				v, ok := pick(wl)[d.Name]
				if !ok {
					return "-"
				}
				return formatValue(v.Value)
			})
			if d.Name == "query_p50_us" || d.Name == "throughput_qps" {
				row("  slice q1..q3", d.Unit, func(wl *workloadResult) string {
					s, ok := wl.Slices[d.Name]
					if !ok {
						return "-"
					}
					return formatValue(s.Q1) + ".." + formatValue(s.Q3)
				})
			}
		}
	}
	section("end to end, tracing off", endToEnd, func(wl *workloadResult) metricSet { return wl.EndToEnd })
	row("failed_share", "ratio", func(wl *workloadResult) string { return formatValue(wl.failedShare()) })
	infoKeys := map[string]bool{}
	for _, wl := range f.Workloads {
		for k := range wl.Info {
			infoKeys[k] = true
		}
	}
	keys := make([]string, 0, len(infoKeys))
	for k := range infoKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		row("  "+k, "", func(wl *workloadResult) string {
			v, ok := wl.Info[k]
			if !ok {
				return "-"
			}
			return formatValue(v)
		})
	}
	section("per layer, traced run", perLayer, func(wl *workloadResult) metricSet { return wl.PerLayer })
}

func formatValue(v float64) string {
	switch a := v; {
	case a == 0:
		return "0"
	case a < 0:
		return "-" + formatValue(-a)
	case a >= 1e6:
		return fmt.Sprintf("%.4g", a)
	case a >= 100:
		return fmt.Sprintf("%.0f", a)
	case a >= 1:
		return fmt.Sprintf("%.2f", a)
	default:
		return fmt.Sprintf("%.4f", a)
	}
}
