// Cross-index experiments: Figure 14 (ReachGrid vs ReachGraph I/O),
// Figure 15 (CPU time) and Table 5 (GRAIL vs ReachGraph, memory- and
// disk-resident). ReachGrid and ReachGraph are selected from the public
// backend registry by name; GRAIL is the lab's baseline.
package bench

import (
	"fmt"

	"streach"
	"streach/internal/trajectory"
)

// comparePair returns one RWP and one VN dataset (the paper uses RWP20k and
// VN2k, the middle sizes).
func (l *Lab) comparePair() []*trajectory.Dataset {
	return []*trajectory.Dataset{
		l.RWP(l.opts.RWPSizes[len(l.opts.RWPSizes)/2]),
		l.VN(l.opts.VNSizes[len(l.opts.VNSizes)/2]),
	}
}

// Fig14 compares per-query I/O of the two indexes at fixed interval
// lengths scaled from the paper's 100/300/500.
func (l *Lab) Fig14() *Table {
	t := &Table{
		ID:      "fig14",
		Title:   "ReachGrid vs ReachGraph I/O by query interval (Fig. 14)",
		Columns: []string{"Dataset", "|Tp|", "ReachGrid IO/q", "ReachGraph IO/q"},
	}
	for _, d := range l.comparePair() {
		w := WavefrontTicks(d)
		for _, length := range []int{w / 3, w, 5 * w / 3} {
			// Fresh engines per measurement point: each |Tp| series starts
			// with a cold buffer pool, as the paper's per-point runs do.
			grid := l.OpenBackend("reachgrid", d, l.gridParams(d))
			graph := l.OpenBackend("reachgraph", d, streach.Options{})
			work := l.Workload(d, length)
			gridIO, _, _ := engineCost(grid.Reachable, work)
			graphIO, _, _ := engineCost(graph.Reachable, work)
			t.AddRow(d.Name, fmt.Sprint(length),
				fmt.Sprintf("%.1f", gridIO), fmt.Sprintf("%.1f", graphIO))
		}
	}
	t.AddNote("paper: ReachGrid comparable at small |Tp|, ReachGraph ahead as |Tp| grows;")
	t.AddNote("on VN (road-constrained, non-uniform) ReachGraph wins by ~63%% on average (Fig. 14);")
	t.AddNote("the 100/300/500-instant series is wavefront-scaled to this environment size")
	return t
}

// Fig15 compares CPU time per query. The store is memory-backed, so wall
// time is compute time with zero disk latency — the paper's "time ignoring
// retrievals from disk".
func (l *Lab) Fig15() *Table {
	t := &Table{
		ID:      "fig15",
		Title:   "CPU time per query (Fig. 15)",
		Columns: []string{"Dataset", "ReachGrid", "ReachGraph"},
	}
	for _, d := range l.comparePair() {
		grid := l.OpenBackend("reachgrid", d, l.gridParams(d))
		graph := l.OpenBackend("reachgraph", d, streach.Options{})
		work := l.Workload(d, 0)
		_, gridT, _ := engineCost(grid.Reachable, work)
		_, graphT, _ := engineCost(graph.Reachable, work)
		t.AddRow(d.Name, fmtDur(gridT), fmtDur(graphT))
	}
	t.AddNote("paper: ReachGraph has far lower CPU time — precomputation replaces query-time spatiotemporal joins (Fig. 15)")
	return t
}

// Table5a compares GRAIL and ReachGraph runtime on memory-resident data.
func (l *Lab) Table5a() *Table {
	t := &Table{
		ID:      "table5a",
		Title:   "GRAIL vs ReachGraph, memory-resident runtime (Table 5a)",
		Columns: []string{"Dataset", "GRAIL", "ReachGraph"},
	}
	for _, d := range l.comparePair() {
		gr := l.grailBaseline(d, false)
		rg := l.OpenBackend("reachgraph-mem", d, streach.Options{})
		work := l.Workload(d, 0)
		_, grailT, _ := engineCost(gr, work)
		_, rgT, _ := engineCost(rg.Reachable, work)
		t.AddRow(d.Name, fmtDur(grailT), fmtDur(rgT))
	}
	t.AddNote("paper (Table 5a): comparable in memory — GRAIL 3.5 ms vs RG 9.0 ms on VN2k, 60 ms vs 39 ms on RWP20k")
	return t
}

// Table5b compares GRAIL and ReachGraph I/O on disk-resident data.
func (l *Lab) Table5b() *Table {
	t := &Table{
		ID:      "table5b",
		Title:   "GRAIL vs ReachGraph, disk-resident I/O (Table 5b)",
		Columns: []string{"Dataset", "GRAIL IO/q", "ReachGraph IO/q", "Saved"},
	}
	for _, d := range l.comparePair() {
		gd := l.grailBaseline(d, true)
		rg := l.OpenBackend("reachgraph", d, streach.Options{})
		work := l.Workload(d, 0)
		grailIO, _, _ := engineCost(gd, work)
		rgIO, _, _ := engineCost(rg.Reachable, work)
		t.AddRow(d.Name, fmt.Sprintf("%.1f", grailIO), fmt.Sprintf("%.1f", rgIO),
			fmt.Sprintf("%.0f%%", 100*(1-rgIO/grailIO)))
	}
	t.AddNote("paper (Table 5b): ReachGraph saves 76%% on VN2k (213→49 IOs) and 88%% on RWP20k (6790→570)")
	return t
}
