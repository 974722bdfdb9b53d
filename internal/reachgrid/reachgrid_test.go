package reachgrid

import (
	"context"
	"sort"
	"testing"

	"streach/internal/contact"
	"streach/internal/geo"
	"streach/internal/mobility"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

func testDataset(t *testing.T, objects, ticks int, seed int64) *trajectory.Dataset {
	t.Helper()
	d := mobility.RandomWaypoint(mobility.RWPConfig{
		NumObjects: objects,
		NumTicks:   ticks,
		Seed:       seed,
	})
	if err := d.Validate(); err != nil {
		t.Fatalf("dataset invalid: %v", err)
	}
	return d
}

func buildIndex(t *testing.T, d *trajectory.Dataset, p Params) *Index {
	t.Helper()
	ix, err := Build(d, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix
}

func TestBuildEmptyDataset(t *testing.T) {
	_, err := Build(&trajectory.Dataset{Env: geo.NewRect(geo.Point{}, geo.Point{X: 1, Y: 1})}, Params{})
	if err == nil {
		t.Fatal("Build on empty dataset: want error")
	}
}

func TestReachMatchesOracle(t *testing.T) {
	d := testDataset(t, 60, 400, 1)
	ix := buildIndex(t, d, Params{})
	net := contact.Extract(d)
	oracle := queries.NewOracle(net)
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(),
		NumTicks:   d.NumTicks(),
		Count:      120,
		MinLen:     20,
		MaxLen:     200,
		Seed:       7,
	})
	var pos int
	for _, q := range work {
		want := oracle.Reachable(q)
		got, err := ix.Reach(q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if got != want {
			t.Fatalf("%v: ReachGrid = %v, oracle = %v", q, got, want)
		}
		if want {
			pos++
		}
	}
	if pos == 0 || pos == len(work) {
		t.Fatalf("degenerate workload: %d/%d positive", pos, len(work))
	}
}

func TestSPJMatchesOracle(t *testing.T) {
	d := testDataset(t, 50, 300, 2)
	ix := buildIndex(t, d, Params{})
	oracle := queries.NewOracle(contact.Extract(d))
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(),
		NumTicks:   d.NumTicks(),
		Count:      60,
		MinLen:     20,
		MaxLen:     150,
		Seed:       3,
	})
	for _, q := range work {
		want := oracle.Reachable(q)
		got, err := ix.SPJReach(q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if got != want {
			t.Fatalf("%v: SPJ = %v, oracle = %v", q, got, want)
		}
	}
}

func TestReachableSetMatchesOracle(t *testing.T) {
	d := testDataset(t, 40, 250, 4)
	ix := buildIndex(t, d, Params{})
	oracle := queries.NewOracle(contact.Extract(d))
	for src := trajectory.ObjectID(0); src < 10; src++ {
		iv := contact.Interval{Lo: trajectory.Tick(5 * src), Hi: trajectory.Tick(5*src) + 120}
		want := oracle.ReachableSet(src, iv)
		got, err := reachableSetFrom(context.Background(), ix, []trajectory.ObjectID{src}, iv)
		if err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
		sortObjs(want)
		if !equalObjs(got, want) {
			t.Fatalf("src %d over %v: got %v, want %v", src, iv, got, want)
		}
	}
}

// TestGuidedExpansionReadsFewerPages checks the locality invariant at any
// scale: the guided expansion never touches more pages than SPJ's
// read-everything pipeline.
func TestGuidedExpansionReadsFewerPages(t *testing.T) {
	d := testDataset(t, 80, 400, 5)
	ix := buildIndex(t, d, Params{})
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(),
		NumTicks:   d.NumTicks(),
		Count:      40,
		MinLen:     50,
		MaxLen:     200,
		Seed:       9,
	})
	pages := func(run func(queries.Query) (bool, error)) int64 {
		ix.ResetCounters()
		ix.Store().DropCache()
		for _, q := range work {
			if _, err := run(q); err != nil {
				t.Fatal(err)
			}
		}
		c := ix.Counters()
		return c.RandomReads + c.SequentialReads
	}
	guided := pages(ix.Reach)
	naive := pages(ix.SPJReach)
	if guided >= naive {
		t.Fatalf("guided expansion read %d pages, SPJ %d", guided, naive)
	}
	t.Logf("pages read: guided %d vs SPJ %d", guided, naive)
}

// TestGuidedExpansionBeatsSPJ checks the §6.1.2 headline in its regime:
// enough objects that a bucket's full contents dwarf the query's
// neighbourhood, with the interval scaled so the infection wavefront does
// not saturate the environment (the paper's standard intervals occupy ~30%
// of the environment side at its scale).
func TestGuidedExpansionBeatsSPJ(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a 1200-object dataset")
	}
	d := testDataset(t, 1200, 800, 5)
	ix := buildIndex(t, d, Params{CellSize: d.Env.Width() / 4})
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(),
		NumTicks:   d.NumTicks(),
		Count:      25,
		MinLen:     80,
		MaxLen:     90,
		Seed:       9,
	})
	measure := func(run func(queries.Query) (bool, error)) float64 {
		ix.ResetCounters()
		ix.Store().DropCache()
		for _, q := range work {
			if _, err := run(q); err != nil {
				t.Fatal(err)
			}
		}
		return ix.Counters().Normalized()
	}
	guided := measure(ix.Reach)
	naive := measure(ix.SPJReach)
	if guided >= naive {
		t.Fatalf("guided expansion (%.1f IOs) not cheaper than SPJ (%.1f IOs)", guided, naive)
	}
	t.Logf("guided %.1f vs SPJ %.1f normalized IOs (%.0f%% saved)",
		guided, naive, 100*(1-guided/naive))
}

func TestQueryValidation(t *testing.T) {
	d := testDataset(t, 10, 50, 6)
	ix := buildIndex(t, d, Params{})
	cases := []queries.Query{
		{Src: -1, Dst: 1, Interval: contact.Interval{Lo: 0, Hi: 10}},
		{Src: 0, Dst: 99, Interval: contact.Interval{Lo: 0, Hi: 10}},
	}
	for _, q := range cases {
		if _, err := ix.Reach(q); err == nil {
			t.Errorf("%v: want validation error", q)
		}
		if _, err := ix.SPJReach(q); err == nil {
			t.Errorf("%v: want SPJ validation error", q)
		}
	}
	if _, err := reachableSetFrom(context.Background(), ix, []trajectory.ObjectID{-3}, contact.Interval{Lo: 0, Hi: 5}); err == nil {
		t.Error("AppendSemProfileFrom(seed -3): want validation error")
	}
	// A seed equal to the destination must not answer before the seeds
	// behind it are checked.
	ok, _, err := ix.ReachFromCounted(context.Background(), []trajectory.ObjectID{1, 99}, 1, contact.Interval{Lo: 0, Hi: 10}, nil)
	if err == nil || ok {
		t.Errorf("ReachFromCounted(seeds {1, 99}, dst 1) = (%v, %v): want validation error", ok, err)
	}
}

func TestDegenerateIntervals(t *testing.T) {
	d := testDataset(t, 10, 50, 6)
	ix := buildIndex(t, d, Params{})

	// Empty interval: nothing reachable.
	got, err := ix.Reach(queries.Query{Src: 0, Dst: 1, Interval: contact.Interval{Lo: 10, Hi: 5}})
	if err != nil || got {
		t.Fatalf("empty interval: got (%v, %v), want (false, nil)", got, err)
	}
	// Self reachability over a valid interval.
	got, err = ix.Reach(queries.Query{Src: 3, Dst: 3, Interval: contact.Interval{Lo: 0, Hi: 5}})
	if err != nil || !got {
		t.Fatalf("self query: got (%v, %v), want (true, nil)", got, err)
	}
	// Interval entirely outside the time domain is clamped to empty.
	got, err = ix.Reach(queries.Query{Src: 0, Dst: 1, Interval: contact.Interval{Lo: 1000, Hi: 2000}})
	if err != nil || got {
		t.Fatalf("out-of-domain interval: got (%v, %v), want (false, nil)", got, err)
	}
	// Interval partially outside is clamped, not rejected.
	if _, err = ix.Reach(queries.Query{Src: 0, Dst: 1, Interval: contact.Interval{Lo: 40, Hi: 400}}); err != nil {
		t.Fatalf("clamped interval: %v", err)
	}
}

func TestResolutionAffectsLayout(t *testing.T) {
	d := testDataset(t, 30, 200, 8)
	coarse := buildIndex(t, d, Params{CellSize: d.Env.Width(), BucketTicks: 100})
	fine := buildIndex(t, d, Params{CellSize: d.Env.Width() / 16, BucketTicks: 5})
	if coarse.NumBuckets() >= fine.NumBuckets() {
		t.Fatalf("buckets: coarse %d, fine %d", coarse.NumBuckets(), fine.NumBuckets())
	}
	// Finer grids replicate boundary-crossing segments, so the fine index
	// must not be smaller than the coarse one.
	if fine.Store().SizeBytes() < coarse.Store().SizeBytes() {
		t.Fatalf("fine index (%d B) smaller than coarse (%d B)",
			fine.Store().SizeBytes(), coarse.Store().SizeBytes())
	}
}

func TestEarlyTerminationSavesIO(t *testing.T) {
	d := testDataset(t, 80, 600, 10)
	ix := buildIndex(t, d, Params{})
	oracle := queries.NewOracle(contact.Extract(d))

	// Find a query that is answered early in a long interval.
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(),
		NumTicks:   d.NumTicks(),
		Count:      200,
		MinLen:     500,
		MaxLen:     550,
		Seed:       11,
	})
	for _, q := range work {
		when, ok := oracle.EarliestReach(q)
		if !ok || when > q.Interval.Lo+60 {
			continue
		}
		longQ := q
		shortQ := q
		shortQ.Interval.Hi = when + 10

		ix.ResetCounters()
		ix.Store().DropCache()
		if _, err := ix.Reach(longQ); err != nil {
			t.Fatal(err)
		}
		long := ix.Counters().Normalized()

		ix.ResetCounters()
		ix.Store().DropCache()
		if _, err := ix.Reach(shortQ); err != nil {
			t.Fatal(err)
		}
		short := ix.Counters().Normalized()

		// Early termination means the long query must not read much more
		// than the short one (it stops at the same discovery instant; it
		// may touch one extra directory page).
		if long > short*1.5+4 {
			t.Fatalf("no early termination: long interval cost %.1f, prefix cost %.1f", long, short)
		}
		return
	}
	t.Skip("no early-positive query found in workload")
}

// reachableSetFrom is the set answer read off the sweep: the objects of the
// unbounded profile of seeds that hold the item from the interval start.
func reachableSetFrom(ctx context.Context, ix *Index, objs []trajectory.ObjectID, iv contact.Interval) ([]trajectory.ObjectID, error) {
	seeds := make([]queries.SeedState, len(objs))
	for i, o := range objs {
		seeds[i].Obj = o
	}
	prof, _, err := ix.AppendSemProfileFrom(ctx, nil, seeds, iv, -1, queries.NoObject, nil)
	var set []trajectory.ObjectID
	for _, e := range prof {
		set = append(set, e.Obj)
	}
	return set, err
}

func sortObjs(s []trajectory.ObjectID) {
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
}

func equalObjs(a, b []trajectory.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
