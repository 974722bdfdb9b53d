package reachgraph

import (
	"context"
	"testing"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/queries"
	"streach/internal/testgen"
	"streach/internal/trajectory"
)

// fixture bundles a dataset with its derived structures.
type fixture struct {
	d      *trajectory.Dataset
	net    *contact.Network
	g      *dn.Graph
	oracle *queries.Oracle
}

func newFixture(t testing.TB, objects, ticks int, seed int64) *fixture {
	t.Helper()
	d := testgen.Spec{Objects: objects, Ticks: ticks, Seed: seed}.Dataset()
	net := contact.Extract(d)
	g := dn.Build(net)
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	return &fixture{d: d, net: net, g: g, oracle: queries.NewOracle(net)}
}

func (f *fixture) workload(count, minLen, maxLen int, seed int64) []queries.Query {
	return queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: f.d.NumObjects(),
		NumTicks:   f.d.NumTicks(),
		Count:      count,
		MinLen:     minLen,
		MaxLen:     maxLen,
		Seed:       seed,
	})
}

// diskReach and memReach are the single-source point query under strategy
// s on either engine.
func diskReach(ix *Index, q queries.Query, s Strategy) (bool, error) {
	ok, _, err := ix.ReachStrategyCounted(context.Background(), q, s, nil)
	return ok, err
}

func memReach(m *Mem, q queries.Query, s Strategy) (bool, error) {
	ok, _, err := m.ReachFromCounted(context.Background(), []trajectory.ObjectID{q.Src}, q.Dst, q.Interval, s)
	return ok, err
}

// seedsOf lifts bare objects into sweep seeds that hold the item from the
// interval's near edge.
func seedsOf(objs ...trajectory.ObjectID) []queries.SeedState {
	seeds := make([]queries.SeedState, len(objs))
	for i, o := range objs {
		seeds[i].Obj = o
	}
	return seeds
}

// objectsOf projects a profile onto its set: the objects it has entries for.
func objectsOf(prof []queries.ProfileEntry) []trajectory.ObjectID {
	var set []trajectory.ObjectID
	for _, e := range prof {
		set = append(set, e.Obj)
	}
	return set
}

func TestBuildEmptyGraph(t *testing.T) {
	if _, err := Build(&dn.Graph{}, Params{}); err == nil {
		t.Fatal("Build on empty graph: want error")
	}
}

func TestAllStrategiesMatchOracle(t *testing.T) {
	f := newFixture(t, 50, 400, 21)
	ix, err := Build(f.g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	work := f.workload(120, 10, 250, 5)
	var pos int
	for _, q := range work {
		want := f.oracle.Reachable(q)
		if want {
			pos++
		}
		for _, s := range []Strategy{BMBFS, BBFS, EBFS, EDFS} {
			got, err := diskReach(ix, q, s)
			if err != nil {
				t.Fatalf("%v %v: %v", s, q, err)
			}
			if got != want {
				t.Fatalf("%v %v: got %v, oracle %v", s, q, got, want)
			}
		}
	}
	if pos == 0 || pos == len(work) {
		t.Fatalf("degenerate workload: %d/%d positive", pos, len(work))
	}
}

func TestMemMatchesDisk(t *testing.T) {
	f := newFixture(t, 40, 300, 22)
	ix, err := Build(f.g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMem(f.g, []int{2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range f.workload(100, 10, 200, 6) {
		for _, s := range []Strategy{BMBFS, BBFS, EDFS} {
			d, err := diskReach(ix, q, s)
			if err != nil {
				t.Fatal(err)
			}
			m, err := memReach(mem, q, s)
			if err != nil {
				t.Fatal(err)
			}
			if d != m {
				t.Fatalf("%v %v: disk %v, mem %v", s, q, d, m)
			}
		}
	}
}

func TestMemMatchesOracle(t *testing.T) {
	f := newFixture(t, 60, 350, 23)
	mem, err := NewMem(f.g, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range f.workload(150, 5, 300, 7) {
		want := f.oracle.Reachable(q)
		got, err := memReach(mem, q, BMBFS)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: mem BM-BFS %v, oracle %v", q, got, want)
		}
	}
}

func TestBMBFSReadsLessThanEDFS(t *testing.T) {
	f := newFixture(t, 70, 500, 24)
	ix, err := Build(f.g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	work := f.workload(50, 150, 350, 8)

	measure := func(s Strategy) float64 {
		ix.ResetCounters()
		ix.DropCache()
		for _, q := range work {
			if _, err := diskReach(ix, q, s); err != nil {
				t.Fatal(err)
			}
		}
		return ix.Counters().Normalized()
	}
	bm := measure(BMBFS)
	b := measure(BBFS)
	edfs := measure(EDFS)
	t.Logf("normalized IOs: BM-BFS %.1f, B-BFS %.1f, E-DFS %.1f", bm, b, edfs)
	if bm > edfs {
		t.Errorf("BM-BFS (%.1f) costs more than E-DFS (%.1f)", bm, edfs)
	}
	if b > edfs {
		t.Errorf("B-BFS (%.1f) costs more than E-DFS (%.1f)", b, edfs)
	}
}

func TestPartitionAssignmentComplete(t *testing.T) {
	f := newFixture(t, 30, 200, 25)
	for _, depth := range []int{1, 4, 32} {
		partOf, parts := partition(f.g, depth)
		seen := 0
		for pid, members := range parts {
			for _, id := range members {
				if partOf[id] != int32(pid) {
					t.Fatalf("depth %d: node %d in partition %d but mapped to %d",
						depth, id, pid, partOf[id])
				}
				seen++
			}
		}
		if seen != len(f.g.Nodes) {
			t.Fatalf("depth %d: %d nodes partitioned, want %d", depth, seen, len(f.g.Nodes))
		}
		for id, p := range partOf {
			if p < 0 {
				t.Fatalf("depth %d: node %d unassigned", depth, id)
			}
		}
	}
}

func TestPartitionDepthTradeoff(t *testing.T) {
	f := newFixture(t, 40, 300, 26)
	shallow, err := Build(f.g, Params{PartitionDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := Build(f.g, Params{PartitionDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if shallow.NumPartitions() <= deep.NumPartitions() {
		t.Fatalf("partitions: depth 1 → %d, depth 64 → %d; want shallow > deep",
			shallow.NumPartitions(), deep.NumPartitions())
	}
}

func TestQueryValidationAndDegenerates(t *testing.T) {
	f := newFixture(t, 20, 100, 27)
	ix, err := Build(f.g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := diskReach(ix, queries.Query{Src: -1, Dst: 0, Interval: contact.Interval{Lo: 0, Hi: 9}}, BMBFS); err == nil {
		t.Error("negative source: want error")
	}
	if _, err := diskReach(ix, queries.Query{Src: 0, Dst: 999, Interval: contact.Interval{Lo: 0, Hi: 9}}, BMBFS); err == nil {
		t.Error("out-of-range destination: want error")
	}
	got, err := diskReach(ix, queries.Query{Src: 0, Dst: 1, Interval: contact.Interval{Lo: 9, Hi: 2}}, BMBFS)
	if err != nil || got {
		t.Errorf("empty interval: got (%v, %v)", got, err)
	}
	got, err = diskReach(ix, queries.Query{Src: 5, Dst: 5, Interval: contact.Interval{Lo: 0, Hi: 50}}, BMBFS)
	if err != nil || !got {
		t.Errorf("self query: got (%v, %v)", got, err)
	}
	// Instantaneous interval: reachable iff same component at that instant.
	q := queries.Query{Src: 0, Dst: 1, Interval: contact.Interval{Lo: 42, Hi: 42}}
	want := f.oracle.Reachable(q)
	got, err = diskReach(ix, q, BMBFS)
	if err != nil || got != want {
		t.Errorf("instant query: got (%v, %v), oracle %v", got, err, want)
	}
	// A seed outside the dataset fails both engines alike, in both queries,
	// with the same visit count beside the error.
	mem, err := NewMem(f.g, []int{2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx, iv := context.Background(), contact.Interval{Lo: 0, Hi: 50}
	_, dv, derr := ix.ReachFromCounted(ctx, []trajectory.ObjectID{0, 999}, 1, iv, BMBFS, nil)
	_, mv, merr := mem.ReachFromCounted(ctx, []trajectory.ObjectID{0, 999}, 1, iv, BMBFS)
	if derr == nil || merr == nil || dv != mv {
		t.Errorf("bad seed, point query: disk (%d, %v), mem (%d, %v); want errors and equal visits", dv, derr, mv, merr)
	}
	_, dv, derr = ix.AppendProfile(ctx, nil, seedsOf(0, 999), iv, queries.Forward, nil, nil)
	_, mv, merr = mem.AppendProfile(ctx, nil, seedsOf(0, 999), iv, queries.Forward, nil)
	if derr == nil || merr == nil || dv != mv {
		t.Errorf("bad seed, sweep: disk (%d, %v), mem (%d, %v); want errors and equal visits", dv, derr, mv, merr)
	}
}

func TestSingleResolutionIndex(t *testing.T) {
	f := newFixture(t, 30, 200, 28)
	ix, err := Build(f.g, Params{Resolutions: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range f.workload(60, 10, 150, 9) {
		want := f.oracle.Reachable(q)
		got, err := diskReach(ix, q, BMBFS)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: got %v, want %v", q, got, want)
		}
	}
}

func TestRejectsBadResolutions(t *testing.T) {
	f := newFixture(t, 10, 50, 29)
	if _, err := Build(f.g, Params{Resolutions: []int{3, 6}}); err == nil {
		t.Fatal("non-power-of-two resolutions: want error")
	}
}
