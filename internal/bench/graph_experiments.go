// ReachGraph experiments: Figure 10 (contact network size + reduction
// ratios), Figure 11 (DN construction time), Table 4 (multi-resolution
// degree), Figure 12 (partition depth) and Figure 13 (traversal
// strategies). Query measurements open the "reachgraph" registry backend,
// and the lab's strategy baselines for the traversals it does not run; the
// structural figures (10, 11, Table 4) inspect the internal reduced graph
// directly.
package bench

import (
	"fmt"

	"streach"
	"streach/internal/dn"
	"streach/internal/queries"
	"streach/internal/reachgraph"
	"streach/internal/trajectory"
)

// Fig10 reports |V| and |E| of the reduced graph DN while growing |T|,
// together with the §6.2.1.1 reduction ratios against the raw TEN.
func (l *Lab) Fig10() *Table {
	t := &Table{
		ID:      "fig10",
		Title:   "Contact network size vs |T| (Fig. 10) and TEN reduction (§6.2.1.1)",
		Columns: []string{"Dataset", "|T|", "DN |V|", "DN |E|", "TEN |V|", "TEN |E|", "V saved", "E saved"},
	}
	lengths := []int{l.opts.Ticks / 4, l.opts.Ticks / 2, l.opts.Ticks}
	for _, base := range []*trajectory.Dataset{
		l.RWP(l.opts.RWPSizes[len(l.opts.RWPSizes)-1]),
		l.VN(l.opts.VNSizes[len(l.opts.VNSizes)-1]),
	} {
		for _, ticks := range lengths {
			sub := prefixDataset(base, ticks)
			net := l.Contacts(sub)
			g := dn.Build(net)
			ten := net.TEN()
			st := g.Stats()
			t.AddRow(base.Name, fmt.Sprint(ticks),
				fmt.Sprint(st.Vertices), fmt.Sprint(st.Edges),
				fmt.Sprint(ten.Vertices), fmt.Sprint(ten.Edges),
				fmt.Sprintf("%.0f%%", 100*(1-float64(st.Vertices)/float64(ten.Vertices))),
				fmt.Sprintf("%.0f%%", 100*(1-float64(st.Edges)/float64(ten.Edges))))
		}
	}
	t.AddNote("paper: |V|,|E| grow with |T| and |O| (Fig. 10); reduction saves 81%%/80%% (RWP) and 64%%/61%% (VN) vertices/edges")
	return t
}

// Fig11 measures DN construction time while growing |T|.
func (l *Lab) Fig11() *Table {
	t := &Table{
		ID:      "fig11",
		Title:   "Contact network (DN) construction time vs |T| (Fig. 11)",
		Columns: []string{"Dataset", "|T|", "Build time"},
	}
	lengths := []int{l.opts.Ticks / 4, l.opts.Ticks / 2, l.opts.Ticks}
	for _, base := range []*trajectory.Dataset{
		l.RWP(l.opts.RWPSizes[len(l.opts.RWPSizes)-1]),
		l.VN(l.opts.VNSizes[len(l.opts.VNSizes)-1]),
	} {
		for _, ticks := range lengths {
			sub := prefixDataset(base, ticks)
			net := l.Contacts(sub)
			dur := timed(func() { dn.Build(net) })
			t.AddRow(base.Name, fmt.Sprint(ticks), fmtDur(dur))
		}
	}
	t.AddNote("paper: < 14 days over the full four-month traces, linear in |O| and |T| (Fig. 11)")
	return t
}

// Table4 reports the average vertex degree of the contact network at
// resolutions DN2 … DN32 for the largest VN and RWP datasets plus VNR.
func (l *Lab) Table4() *Table {
	t := &Table{
		ID:      "table4",
		Title:   "Average vertex degree at resolution DNi (Table 4)",
		Columns: []string{"Resolution", "VN", "RWP", "VNR"},
	}
	vn := l.Graph(l.VN(l.opts.VNSizes[len(l.opts.VNSizes)-1]))
	rwp := l.Graph(l.RWP(l.opts.RWPSizes[len(l.opts.RWPSizes)-1]))
	vnr := l.Graph(l.Taxi())
	for _, L := range []int{2, 4, 8, 16, 32} {
		cell := func(g *dn.Graph) string {
			avg, nodes := g.AvgDegree(L)
			if nodes == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", avg)
		}
		t.AddRow(fmt.Sprintf("DN%d", L), cell(vn), cell(rwp), cell(vnr))
	}
	t.AddNote("paper (Table 4): degree grows with resolution; VN4k 2.9→221, RWP40k 3.0→322, VNR much sparser (1.5→9.0)")
	return t
}

// graphQueryCost opens a ReachGraph-family registry backend with the given
// options and returns the mean normalized I/O per query.
func (l *Lab) graphQueryCost(d *trajectory.Dataset, backend string,
	opts streach.Options, work []queries.Query) float64 {

	io, _, _ := engineCost(l.OpenBackend(backend, d, opts).Reachable, work)
	return io
}

// strategyCost returns the mean normalized I/O per query of traversal s on
// d's default disk ReachGraph: BM-BFS through the registry's "reachgraph",
// any other traversal through the lab's baseline.
func (l *Lab) strategyCost(d *trajectory.Dataset, s reachgraph.Strategy, work []queries.Query) float64 {
	if s == reachgraph.BMBFS {
		return l.graphQueryCost(d, "reachgraph", streach.Options{}, work)
	}
	io, _, _ := engineCost(l.strategyBaseline(d, s), work)
	return io
}

// Fig12 sweeps the partition depth dp.
func (l *Lab) Fig12() *Table {
	t := &Table{
		ID:      "fig12",
		Title:   "ReachGraph I/O vs partition depth (Fig. 12)",
		Columns: []string{"Dataset", "Depth", "IO/query"},
	}
	for _, d := range l.comparePair() {
		work := l.Workload(d, 0)
		for _, depth := range []int{1, 2, 4, 8, 16, 32, 64} {
			io := l.graphQueryCost(d, "reachgraph",
				streach.Options{PartitionDepth: depth}, work)
			t.AddRow(d.Name, fmt.Sprint(depth), fmt.Sprintf("%.1f", io))
		}
	}
	t.AddNote("paper: deeper partitions buffer future vertices until partitions grow too large; optimum dp=32 (Fig. 12)")
	return t
}

// Fig13 compares the traversal strategies.
func (l *Lab) Fig13() *Table {
	t := &Table{
		ID:      "fig13",
		Title:   "ReachGraph traversal strategies (Fig. 13)",
		Columns: []string{"Dataset", "BM-BFS IO/q", "B-BFS IO/q", "E-DFS IO/q"},
	}
	for _, d := range l.comparePair() {
		work := l.Workload(d, 0)
		row := []string{d.Name}
		for _, s := range []reachgraph.Strategy{reachgraph.BMBFS, reachgraph.BBFS, reachgraph.EDFS} {
			row = append(row, fmt.Sprintf("%.1f", l.strategyCost(d, s, work)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: BM-BFS beats E-DFS by >80%% and B-BFS by >15%% on RWP20k and VN2k (Fig. 13)")
	return t
}
