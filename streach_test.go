package streach_test

import (
	"context"
	"sort"
	"testing"

	"streach"
)

// pipeline opens the two paper indexes once for the integration tests: the
// ReachGrid and one ReachGraph engine per traversal strategy, BM-BFS first.
type pipeline struct {
	ds     *streach.Dataset
	oracle *streach.Oracle
	grid   streach.Engine
	graphs []streach.Engine
}

func buildPipeline(t testing.TB, ds *streach.Dataset) *pipeline {
	t.Helper()
	p := &pipeline{ds: ds, oracle: ds.Contacts().Oracle()}
	for _, name := range []string{"reachgrid", "reachgraph", "reachgraph-bbfs", "reachgraph-ebfs", "reachgraph-edfs"} {
		e, err := streach.Open(name, ds, streach.Options{})
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		if name == "reachgrid" {
			p.grid = e
		} else {
			p.graphs = append(p.graphs, e)
		}
	}
	return p
}

// agree fails the test unless e answers q as want.
func agree(t testing.TB, e streach.Engine, q streach.Query, want bool) {
	t.Helper()
	if r, err := e.Reachable(context.Background(), q); err != nil || r.Reachable != want {
		t.Fatalf("%s %v: got (%v, %v), want %v", e.Name(), q, r.Reachable, err, want)
	}
}

func (p *pipeline) workload(t testing.TB, count int, seed int64) []streach.Query {
	t.Helper()
	return streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: p.ds.NumObjects(),
		NumTicks:   p.ds.NumTicks(),
		Count:      count,
		MinLen:     10,
		MaxLen:     p.ds.NumTicks() / 2,
		Seed:       seed,
	})
}

// TestEndToEndRWP runs the full pipeline on a random-waypoint dataset: every
// engine and every traversal strategy must agree with ground truth.
func TestEndToEndRWP(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 60, NumTicks: 500, Seed: 3,
	})
	p := buildPipeline(t, ds)
	var pos int
	for _, q := range p.workload(t, 120, 17) {
		want := p.oracle.Reachable(q)
		if want {
			pos++
		}
		agree(t, p.grid, q, want)
		for _, graph := range p.graphs {
			agree(t, graph, q, want)
		}
	}
	if pos == 0 || pos == 120 {
		t.Fatalf("degenerate workload: %d/120 positive", pos)
	}
}

// TestEndToEndVehicles runs the pipeline on the road-network dataset.
func TestEndToEndVehicles(t *testing.T) {
	ds := streach.GenerateVehicles(streach.VNOptions{
		NumObjects: 50, NumTicks: 400, Seed: 5,
	})
	p := buildPipeline(t, ds)
	for _, q := range p.workload(t, 80, 19) {
		want := p.oracle.Reachable(q)
		agree(t, p.grid, q, want)
		agree(t, p.graphs[0], q, want)
	}
}

// TestEndToEndTaxi runs the pipeline on the interpolated taxi-day dataset.
func TestEndToEndTaxi(t *testing.T) {
	ds := streach.GenerateTaxiDay(streach.TaxiOptions{
		NumObjects: 40, NumMinutes: 30, Seed: 7,
	})
	p := buildPipeline(t, ds)
	for _, q := range p.workload(t, 50, 23) {
		want := p.oracle.Reachable(q)
		agree(t, p.graphs[0], q, want)
	}
}

// TestReachableSetsAgree cross-checks the batch primitive between the
// oracle and ReachGrid through the public API.
func TestReachableSetsAgree(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 50, NumTicks: 300, Seed: 9,
	})
	p := buildPipeline(t, ds)
	for src := streach.ObjectID(0); src < 8; src++ {
		iv := streach.NewInterval(streach.Tick(10*src), streach.Tick(10*src)+150)
		want := p.oracle.ReachableSet(src, iv)
		got, err := p.grid.ReachableSet(context.Background(), src, iv)
		if err != nil {
			t.Fatal(err)
		}
		sortIDs(want)
		if !equalIDs(got.Objects, want) {
			t.Fatalf("src %d: grid set %v, oracle set %v", src, got.Objects, want)
		}
	}
}

// TestUncertainConsistency checks the §7 probabilistic semantics against
// the deterministic special cases through the public API.
func TestUncertainConsistency(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 40, NumTicks: 250, Seed: 13,
	})
	cn := ds.Contacts()
	oracle := cn.Oracle()

	certain, err := cn.UncertainUniform(1)
	if err != nil {
		t.Fatal(err)
	}
	random, err := cn.UncertainRandom(0.3, 0.9, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: 40, NumTicks: 250, Count: 60, MinLen: 10, MaxLen: 150, Seed: 27,
	}) {
		want := oracle.Reachable(q)
		got, err := certain.Reachable(q.Src, q.Dst, q.Interval, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: certain %v, oracle %v", q, got, want)
		}
		// Under random probabilities, positive probability iff reachable.
		p, err := random.BestProb(q.Src, q.Dst, q.Interval)
		if err != nil {
			t.Fatal(err)
		}
		if (p > 0) != want && q.Src != q.Dst {
			t.Fatalf("%v: BestProb=%v but oracle=%v", q, p, want)
		}
	}
}

// TestNonImmediateExtension checks the lifetime-0 degenerate case and
// monotonicity through the public API.
func TestNonImmediateExtension(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 35, NumTicks: 200, Seed: 15,
	})
	oracle := ds.Contacts().Oracle()
	immediate, err := streach.ExtractNonImmediate(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := streach.ExtractNonImmediate(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: 35, NumTicks: 200, Count: 60, MinLen: 10, MaxLen: 120, Seed: 29,
	}) {
		want := oracle.Reachable(q)
		got, err := immediate.Reachable(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: lifetime-0 %v, oracle %v", q, got, want)
		}
		wide, err := delayed.Reachable(q)
		if err != nil {
			t.Fatal(err)
		}
		if want && !wide {
			t.Fatalf("%v: reachable immediately but not with lifetime 5", q)
		}
	}
}

// TestDeterministicGeneration pins generator reproducibility.
func TestDeterministicGeneration(t *testing.T) {
	a := streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 20, NumTicks: 100, Seed: 42})
	b := streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 20, NumTicks: 100, Seed: 42})
	if a.Contacts().NumContacts() != b.Contacts().NumContacts() {
		t.Fatal("same seed produced different contact networks")
	}
	c := streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 20, NumTicks: 100, Seed: 43})
	if a.Contacts().NumContacts() == c.Contacts().NumContacts() &&
		a.SizeBytes() == c.SizeBytes() {
		pa := a.Position(0, 50)
		pc := c.Position(0, 50)
		if pa == pc {
			t.Fatal("different seeds produced identical trajectories")
		}
	}
}

func sortIDs(s []streach.ObjectID) {
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
}

func equalIDs(a, b []streach.ObjectID) bool {
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

// TestContactStreamMatchesBatch feeds a dataset through the incremental
// contact stream of a LiveEngine and compares a mid-stream and a final
// snapshot against batch extraction. The slab is wider than the feed, so
// the snapshot is the incremental builder's network, unsplit by seals.
func TestContactStreamMatchesBatch(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 30, NumTicks: 150, Seed: 33,
	})
	cs, err := streach.NewLiveEngine("oracle", ds.NumObjects(), ds.Env(), ds.ContactDist(),
		streach.Options{SegmentTicks: 2 * ds.NumTicks()})
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]streach.Point, ds.NumObjects())
	feed := func(lo, hi int) {
		for tk := lo; tk < hi; tk++ {
			for o := range positions {
				positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
			}
			if err := cs.AddInstant(positions); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(0, 75)
	mid := cs.Snapshot()
	if mid.NumTicks() != 75 {
		t.Fatalf("mid snapshot ticks: %d", mid.NumTicks())
	}
	feed(75, ds.NumTicks())
	got := cs.Snapshot()
	want := ds.Contacts()
	if got.NumContacts() != want.NumContacts() {
		t.Fatalf("stream %d contacts, batch %d", got.NumContacts(), want.NumContacts())
	}
	// The streamed snapshot must answer queries identically.
	graph, err := streach.Open("reachgraph", got, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := want.Oracle()
	for _, q := range streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: 30, NumTicks: 150, Count: 50, MinLen: 10, MaxLen: 100, Seed: 35,
	}) {
		agree(t, graph, q, oracle.Reachable(q))
	}
	// Validation errors.
	if _, err := streach.NewLiveEngine("oracle", 0, ds.Env(), 25, streach.Options{}); err == nil {
		t.Error("zero objects: want error")
	}
	if _, err := streach.NewLiveEngine("oracle", 5, ds.Env(), 0, streach.Options{}); err == nil {
		t.Error("zero threshold: want error")
	}
	if err := cs.AddInstant(positions[:3]); err == nil {
		t.Error("short position slice: want error")
	}
}
