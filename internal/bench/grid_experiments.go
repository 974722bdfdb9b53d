// ReachGrid experiments: Table 2 (dataset sizes), Figure 8 (resolution
// optimization), Figure 9 (construction time) and the §6.1.2 SPJ
// comparison. Query measurements open the "reachgrid" registry backend and
// the lab's SPJ baseline; the construction-time figure builds the index
// directly.
package bench

import (
	"fmt"

	"streach"
	"streach/internal/reachgrid"
	"streach/internal/trajectory"
)

// Table1 prints the complexity comparison of the paper's Table 1. It is
// analytic — no measurement — and included so every paper artifact has a
// regenerator.
func (l *Lab) Table1() *Table {
	t := &Table{
		ID:      "table1",
		Title:   "Complexity comparison (analytic, Table 1)",
		Columns: []string{"", "GRAIL", "ReachGraph", "ReachGrid"},
	}
	t.AddRow("Query Time", "O(|O|·|Tp|·nr)", "O(|O|·|T'p| / (np·bp))", "O(|O|·|T'p| / (nc·bc))")
	t.AddRow("Construction Time", "O(d·|O|·|T|)", "O(|O|·|T|)", "O(|O|·|T|)")
	t.AddNote("|T'p| ≤ |Tp| is the smallest deciding prefix of the query interval;")
	t.AddNote("nc/np are objects per cell/partition, bc/bp cells/partitions per block,")
	t.AddNote("d the GRAIL label count, nr the mean per-instant reachable set size.")
	return t
}

// Table2 reports the raw volume of every generated dataset, the scale-down
// counterpart of the paper's Table 2 (RWP10k = 190 GB … VN4k = 92 GB).
func (l *Lab) Table2() *Table {
	t := &Table{
		ID:      "table2",
		Title:   "Data collection size (Table 2)",
		Columns: []string{"Dataset", "Objects", "Ticks", "Size"},
	}
	add := func(d *trajectory.Dataset) {
		t.AddRow(d.Name, fmt.Sprint(d.NumObjects()), fmt.Sprint(d.NumTicks()), fmtBytes(d.SizeBytes()))
	}
	for _, n := range l.opts.RWPSizes {
		add(l.RWP(n))
	}
	for _, n := range l.opts.VNSizes {
		add(l.VN(n))
	}
	add(l.Taxi())
	t.AddNote("paper: RWP10k/20k/40k = 190/380/760 GB, VN1k/2k/4k = 23/46/92 GB; sizes scale linearly with |O|·|T| there as here")
	return t
}

// gridQueryCost opens a "reachgrid" backend at the given resolutions and
// returns the mean normalized I/O per query of the wavefront-scaled
// workload (the regime in which resolution trade-offs are visible; see
// WavefrontTicks).
func (l *Lab) gridQueryCost(d *trajectory.Dataset, cellSize float64, bucketTicks int) float64 {
	e := l.OpenBackend("reachgrid", d, streach.Options{CellSize: cellSize, BucketTicks: bucketTicks})
	io, _, _ := engineCost(e.Reachable, l.Workload(d, WavefrontTicks(d)))
	return io
}

// Fig8a sweeps the spatial resolution at fixed temporal resolution 20.
func (l *Lab) Fig8a() *Table {
	t := &Table{
		ID:      "fig8a",
		Title:   "ReachGrid I/O vs spatial grid resolution (Fig. 8a)",
		Columns: []string{"Dataset", "Cell size", "IO/query"},
	}
	for _, n := range l.opts.RWPSizes[len(l.opts.RWPSizes)-1:] {
		d := l.RWP(n)
		w := d.Env.Width()
		for _, frac := range []float64{64, 32, 16, 8, 4, 2, 1} {
			cell := w / frac
			io := l.gridQueryCost(d, cell, 20)
			t.AddRow(d.Name, fmt.Sprintf("%.0f m (W/%.0f)", cell, frac), fmt.Sprintf("%.1f", io))
		}
	}
	t.AddNote("paper: U-shaped curve with optimum RS=1024 m on RWP (Fig. 8a); the sweep")
	t.AddNote("spans too-fine grids (cell churn, random reads) to too-coarse (irrelevant segments)")
	return t
}

// Fig8b sweeps the temporal resolution at fixed spatial resolution W/8.
func (l *Lab) Fig8b() *Table {
	t := &Table{
		ID:      "fig8b",
		Title:   "ReachGrid I/O vs temporal grid resolution (Fig. 8b)",
		Columns: []string{"Dataset", "Bucket ticks", "IO/query"},
	}
	for _, n := range l.opts.RWPSizes[len(l.opts.RWPSizes)-1:] {
		d := l.RWP(n)
		for _, rt := range []int{5, 10, 20, 40, 80} {
			io := l.gridQueryCost(d, d.Env.Width()/4, rt)
			t.AddRow(d.Name, fmt.Sprint(rt), fmt.Sprintf("%.1f", io))
		}
	}
	t.AddNote("paper: optimum RT=20 on both dataset families (Fig. 8b)")
	return t
}

// Fig9 measures ReachGrid construction time while growing |T|.
func (l *Lab) Fig9() *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "ReachGrid construction time vs |T| (Fig. 9)",
		Columns: []string{"Dataset", "|T|", "Build time"},
	}
	lengths := []int{l.opts.Ticks / 4, l.opts.Ticks / 2, l.opts.Ticks}
	for _, mk := range []func() *trajectory.Dataset{
		func() *trajectory.Dataset { return l.RWP(l.opts.RWPSizes[len(l.opts.RWPSizes)-1]) },
		func() *trajectory.Dataset { return l.VN(l.opts.VNSizes[len(l.opts.VNSizes)-1]) },
	} {
		full := mk()
		for _, ticks := range lengths {
			sub := prefixDataset(full, ticks)
			dur := timed(func() {
				if _, err := reachgrid.Build(sub, reachgrid.Params{}); err != nil {
					panic(err)
				}
			})
			t.AddRow(full.Name, fmt.Sprint(ticks), fmtDur(dur))
		}
	}
	t.AddNote("paper: construction < 4.3 h on 1.7–2M instants; grows ~linearly in |T| and |O| (Fig. 9)")
	return t
}

// SPJ compares guided ReachGrid expansion against the naïve
// join-everything pipeline (§6.1.2). Intervals are wavefront-scaled (see
// WavefrontTicks); the rows across dataset sizes show the gap widening with
// data volume, the effect behind the paper's ≥96% at 10k-40k objects.
func (l *Lab) SPJ() *Table {
	t := &Table{
		ID:      "spj",
		Title:   "ReachGrid vs naive SPJ (§6.1.2)",
		Columns: []string{"Dataset", "|Tp|", "ReachGrid IO/q", "SPJ IO/q", "Saved"},
	}
	var sets []*trajectory.Dataset
	for _, n := range l.opts.RWPSizes {
		sets = append(sets, l.RWP(n))
	}
	sets = append(sets, l.VN(l.opts.VNSizes[len(l.opts.VNSizes)-1]))
	for _, d := range sets {
		// The two indexes share build parameters, so the data placement
		// is identical and the difference measured is purely the guided
		// expansion.
		opts := l.gridParams(d)
		grid := l.OpenBackend("reachgrid", d, opts)
		spj := spjBaseline(d, opts)
		length := WavefrontTicks(d)
		work := l.Workload(d, length)
		guided, _, _ := engineCost(grid.Reachable, work)
		naive, _, _ := engineCost(spj, work)
		t.AddRow(d.Name, fmt.Sprint(length), fmt.Sprintf("%.1f", guided),
			fmt.Sprintf("%.1f", naive), fmt.Sprintf("%.0f%%", 100*(1-guided/naive)))
	}
	t.AddNote("paper: ReachGrid outperforms SPJ by at least 96%% on all RWP and VN datasets;")
	t.AddNote("the margin needs the paper's data volume — SPJ costs scale with |O| while guided")
	t.AddNote("expansion scales with the infection wavefront (see the widening Saved column)")
	return t
}

// gridParams returns the ReachGrid resolutions the Figure 8 sweeps select
// at laptop scale: coarse cells that keep tens of objects per cell (the
// paper's 1024 m cells hold ~100 objects of RWP10k) and the paper's RT=20.
func (l *Lab) gridParams(d *trajectory.Dataset) streach.Options {
	return streach.Options{CellSize: d.Env.Width() / 4, BucketTicks: 20}
}

// prefixDataset restricts d to its first `ticks` instants (the growing-|T|
// experiments of Figures 9–11 share one generated trace).
func prefixDataset(d *trajectory.Dataset, ticks int) *trajectory.Dataset {
	if ticks >= d.NumTicks() {
		return d
	}
	sub := &trajectory.Dataset{
		Name:        fmt.Sprintf("%s[:%d]", d.Name, ticks),
		Env:         d.Env,
		TickSeconds: d.TickSeconds,
		ContactDist: d.ContactDist,
	}
	for i := range d.Trajs {
		tr := &d.Trajs[i]
		seg := tr.Slice(0, trajectory.Tick(ticks-1))
		sub.Trajs = append(sub.Trajs, trajectory.Trajectory{
			Object: tr.Object,
			Start:  seg.Start,
			Pos:    seg.Pos,
		})
	}
	return sub
}
