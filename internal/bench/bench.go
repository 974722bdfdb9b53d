// Package bench regenerates every table and figure of the paper's
// evaluation (§6) on density-preserving scale-downs of its datasets. Each
// experiment returns a Table whose rows mirror the series the paper plots;
// cmd/reachbench renders them as text and the root bench_test.go drives
// them under testing.B.
//
// Scale note: the paper ran 10k–40k objects over four months of trace on a
// disk array. The Lab defaults reproduce the papers' object densities
// (objects per contact disc), which is what determines contact-network
// structure, at laptop scale. Shapes — who wins, by what factor, where
// crossovers fall — are the reproduction target, not absolute values; the
// table footnotes quote the paper-reported numbers for comparison.
//
// Cross-backend experiments select the system's evaluators from the public
// backend registry by name (streach.Open) and the §6 baselines from
// baselines.go, and measure both through the typed per-query Results; only
// experiments probing internal structure (graph reduction, construction
// time, parameter encodings) touch the internal packages otherwise.
//
// This package reproduces the paper; it does not track this repository's
// performance over time. That is benchmark/ (BENCHMARK.json), the one
// measurement system: nothing here emits records, and no number printed
// here is compared against an earlier run.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"streach"
	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/mobility"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// Options scales the experiment suite.
type Options struct {
	// RWPSizes are the random-waypoint object counts standing in for
	// RWP10k/20k/40k. Default {400, 800, 1600}.
	RWPSizes []int
	// VNSizes are the vehicle counts standing in for VN1k/2k/4k.
	// Default {100, 200, 400}.
	VNSizes []int
	// Ticks is the time-domain length standing in for the four-month
	// traces. Default 2000.
	Ticks int
	// TaxiObjects and TaxiMinutes size the VNR stand-in. Defaults 100
	// and 120 (interpolated ×12 to 1440 five-second ticks).
	TaxiObjects int
	TaxiMinutes int
	// Queries is the number of random queries per measurement point
	// (the paper uses 400). Default 50.
	Queries int
	// Seed fixes all generators.
	Seed int64
	// Backends restricts the "backends" sweep to the named registry
	// backends. Default: every registered backend.
	Backends []string
}

func (o *Options) applyDefaults() {
	if len(o.RWPSizes) == 0 {
		o.RWPSizes = []int{400, 800, 1600}
	}
	if len(o.VNSizes) == 0 {
		o.VNSizes = []int{100, 200, 400}
	}
	if o.Ticks <= 0 {
		o.Ticks = 2000
	}
	if o.TaxiObjects <= 0 {
		o.TaxiObjects = 100
	}
	if o.TaxiMinutes <= 0 {
		o.TaxiMinutes = 120
	}
	if o.Queries <= 0 {
		o.Queries = 50
	}
	if len(o.Backends) == 0 {
		o.Backends = streach.Backends()
	}
}

// Table is one regenerated paper artifact.
type Table struct {
	ID      string // e.g. "fig13"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Lab caches datasets and derived structures across experiments.
type Lab struct {
	opts Options

	datasets map[string]*trajectory.Dataset
	contacts map[string]*contact.Network
	graphs   map[string]*dn.Graph
	pub      map[string]*streach.Dataset
}

// NewLab returns a Lab with the given options (zero value = defaults).
func NewLab(opts Options) *Lab {
	opts.applyDefaults()
	return &Lab{
		opts:     opts,
		datasets: map[string]*trajectory.Dataset{},
		contacts: map[string]*contact.Network{},
		graphs:   map[string]*dn.Graph{},
		pub:      map[string]*streach.Dataset{},
	}
}

// Options returns the effective (defaulted) options.
func (l *Lab) Options() Options { return l.opts }

// RWP returns the cached n-object random-waypoint dataset.
func (l *Lab) RWP(n int) *trajectory.Dataset {
	return l.dataset(fmt.Sprintf("rwp%d", n), func() *trajectory.Dataset {
		return mobility.RandomWaypoint(mobility.RWPConfig{
			NumObjects: n, NumTicks: l.opts.Ticks, Seed: l.opts.Seed + int64(n),
		})
	})
}

// VN returns the cached n-object road-network vehicle dataset.
func (l *Lab) VN(n int) *trajectory.Dataset {
	return l.dataset(fmt.Sprintf("vn%d", n), func() *trajectory.Dataset {
		return mobility.NetworkVehicles(mobility.VNConfig{
			NumObjects: n, NumTicks: l.opts.Ticks, Seed: l.opts.Seed + 1000 + int64(n),
		})
	})
}

// Taxi returns the cached VNR stand-in dataset.
func (l *Lab) Taxi() *trajectory.Dataset {
	return l.dataset("vnr", func() *trajectory.Dataset {
		return mobility.TaxiDay(mobility.TaxiConfig{
			NumObjects: l.opts.TaxiObjects, NumMinutes: l.opts.TaxiMinutes,
			Seed: l.opts.Seed + 2000,
		})
	})
}

func (l *Lab) dataset(key string, build func() *trajectory.Dataset) *trajectory.Dataset {
	if d, ok := l.datasets[key]; ok {
		return d
	}
	d := build()
	l.datasets[key] = d
	return d
}

// Contacts returns the cached contact network of d.
func (l *Lab) Contacts(d *trajectory.Dataset) *contact.Network {
	if n, ok := l.contacts[d.Name]; ok {
		return n
	}
	n := contact.Extract(d)
	l.contacts[d.Name] = n
	return n
}

// Pub returns the cached facade wrapper of d, the Source handed to
// streach.Open for trajectory-indexing backends.
func (l *Lab) Pub(d *trajectory.Dataset) *streach.Dataset {
	if p, ok := l.pub[d.Name]; ok {
		return p
	}
	p := streach.WrapDataset(d)
	l.pub[d.Name] = p
	return p
}

// PubContacts wraps the cached contact network of d as an Open Source for
// graph-based backends, sharing the Lab's one extraction per dataset.
func (l *Lab) PubContacts(d *trajectory.Dataset) *streach.ContactNetwork {
	return streach.WrapContactNetwork(l.Contacts(d))
}

// OpenBackend opens a registry backend over the right cached source for d.
// Each open builds its own index (graph backends re-reduce the cached
// contact network, ~100-200ms at default scale); construction cost is
// deliberately outside every measurement, and a fresh engine per
// configuration is what keeps measurement points cold.
func (l *Lab) OpenBackend(name string, d *trajectory.Dataset, opts streach.Options) streach.Engine {
	var src streach.Source = l.PubContacts(d)
	if info, ok := streach.LookupBackend(name); ok && info.NeedsTrajectories {
		src = l.Pub(d)
	}
	e, err := streach.Open(name, src, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: open %s over %s: %v", name, d.Name, err))
	}
	return e
}

// engineCost drives work through query — an Engine's Reachable or a
// baseline's — and returns the mean normalized I/O, wall time and expansion
// count per query, read off the typed per-query Results.
func engineCost(query pointQuery, work []queries.Query) (ioPerQ float64, timePerQ time.Duration, expandedPerQ float64) {
	ctx := context.Background()
	var io, expanded float64
	var dur time.Duration
	for _, q := range work {
		r, err := query(ctx, q)
		if err != nil {
			panic(fmt.Sprintf("bench: %v: %v", q, err))
		}
		io += r.IO.Normalized
		expanded += float64(r.Expanded)
		dur += r.Latency
	}
	n := float64(len(work))
	return io / n, dur / time.Duration(len(work)), expanded / n
}

// BackendSweep runs the standard workload through every selected registry
// backend on the middle RWP and VN datasets — the registry's one-stop
// comparison table, selected by backend name (Options.Backends).
func (l *Lab) BackendSweep() *Table {
	t := &Table{
		ID:      "backends",
		Title:   "All registered backends, one workload (registry sweep)",
		Columns: []string{"Backend", "Dataset", "IO/q", "Time/q", "Expanded/q", "Index"},
	}
	for _, d := range l.comparePair() {
		work := l.Workload(d, 0)
		for _, name := range l.opts.Backends {
			e := l.OpenBackend(name, d, streach.Options{})
			io, dur, exp := engineCost(e.Reachable, work)
			t.AddRow(e.Name(), d.Name, fmt.Sprintf("%.1f", io), fmtDur(dur),
				fmt.Sprintf("%.1f", exp), fmtBytes(e.Stats().IndexBytes))
		}
	}
	t.AddNote("every engine satisfies streach.Engine and was opened by name via streach.Open;")
	t.AddNote("IO/q and Time/q are means of the per-query Result deltas over the standard workload")
	return t
}

// Graph returns the cached reduced graph of d, augmented at the paper's
// optimal resolutions {2 … 32}.
func (l *Lab) Graph(d *trajectory.Dataset) *dn.Graph {
	if g, ok := l.graphs[d.Name]; ok {
		return g
	}
	g := dn.Build(l.Contacts(d))
	if err := g.Augment([]int{2, 4, 8, 16, 32}); err != nil {
		panic(fmt.Sprintf("bench: augment %s: %v", d.Name, err))
	}
	l.graphs[d.Name] = g
	return g
}

// Workload returns the paper's random workload over d: interval lengths
// uniform in [150, 350] unless overridden by fixed > 0, which pins the
// length (Figure 14's 100/300/500 series).
func (l *Lab) Workload(d *trajectory.Dataset, fixed int) []queries.Query {
	cfg := queries.WorkloadConfig{
		NumObjects: d.NumObjects(),
		NumTicks:   d.NumTicks(),
		Count:      l.opts.Queries,
		Seed:       l.opts.Seed + 77,
	}
	if fixed > 0 {
		cfg.MinLen, cfg.MaxLen = fixed, fixed
	}
	return queries.RandomWorkload(cfg)
}

// WavefrontTicks returns the scale-preserving query interval length for d.
// The paper's standard intervals (150-350 instants, midpoint 250) let an
// infection wavefront cover about 30% of the environment's side on RWP10k
// (250 ticks at 2 m/s and 6 s/tick = 3 km of 10 km). Shrinking the
// environment to keep object density constant therefore requires shrinking
// the interval proportionally — otherwise the wavefront saturates the space
// and every spatial index degenerates to a full scan. Experiments whose
// outcome depends on spatial locality (SPJ, Figure 14) use this length and
// say so in their notes.
func WavefrontTicks(d *trajectory.Dataset) int {
	l := int(0.3 * d.Env.Width() / meanStep(d))
	if l < 30 {
		l = 30
	}
	if l > d.NumTicks()/2 {
		l = d.NumTicks() / 2
	}
	return l
}

// meanStep estimates the mean per-tick displacement from a sample of the
// dataset's trajectories.
func meanStep(d *trajectory.Dataset) float64 {
	var sum float64
	var n int
	for i := 0; i < len(d.Trajs) && i < 32; i++ {
		pos := d.Trajs[i].Pos
		for t := 1; t < len(pos) && t < 512; t++ {
			sum += pos[t].Dist(pos[t-1])
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 12 // RWP default: 2 m/s at 6 s/tick
	}
	return sum / float64(n)
}

// timed returns f's wall-clock duration. The store is memory-backed, so
// wall time is CPU time for the simulated-disk engines.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// fmtDur renders a duration with ms precision.
func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

// fmtBytes renders a byte count in human units.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// experiments lists every regenerated artifact in paper order, then the
// registry sweep and the table-only ablations.
var experiments = []struct {
	id  string
	run func(*Lab) *Table
}{
	{"table1", (*Lab).Table1},
	{"table2", (*Lab).Table2},
	{"fig8a", (*Lab).Fig8a},
	{"fig8b", (*Lab).Fig8b},
	{"fig9", (*Lab).Fig9},
	{"spj", (*Lab).SPJ},
	{"fig10", (*Lab).Fig10},
	{"fig11", (*Lab).Fig11},
	{"table4", (*Lab).Table4},
	{"fig12", (*Lab).Fig12},
	{"fig12b", (*Lab).Fig12b},
	{"fig13", (*Lab).Fig13},
	{"fig14", (*Lab).Fig14},
	{"fig15", (*Lab).Fig15},
	{"table5a", (*Lab).Table5a},
	{"table5b", (*Lab).Table5b},
	{"backends", (*Lab).BackendSweep},
	{"ablation-pool", (*Lab).AblationPool},
	{"ablation-bidir", (*Lab).AblationBidirectional},
}

// All runs every experiment in paper order.
func (l *Lab) All() []*Table {
	tables := make([]*Table, len(experiments))
	for i, e := range experiments {
		tables[i] = e.run(l)
	}
	return tables
}

// ByID returns the experiment runner for a table/figure id, or nil.
func (l *Lab) ByID(id string) func() *Table {
	for _, e := range experiments {
		if strings.EqualFold(e.id, id) {
			return func() *Table { return e.run(l) }
		}
	}
	return nil
}

// IDs lists the available experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
