package reachgrid

import (
	"context"
	"slices"
	"testing"

	"streach/internal/contact"
	"streach/internal/queries"
	"streach/internal/testgen"
	"streach/internal/trajectory"
)

// fuzzEnvSide is the side of the generated datasets' square environment:
// at most 16 objects in 160 m × 160 m with the default 25 m contact
// distance meet often.
const fuzzEnvSide = 160

// FuzzGridSweepVsOracle drives the grid's three sweeps over generated
// datasets and checks them against the oracle. From the fuzz bytes it
// reads an RWP or clustered dataset of 2–16 objects and 1–120 ticks in a
// fuzzEnvSide square, the grid's Params (cell Intn(17), 0 ⇒ default, else
// fuzzEnvSide/cell wide, down to below the contact distance; BucketTicks
// Intn(25), 0 ⇒ default; PoolPages Intn(33)−1, so −1 disables the pool and
// a few pages evict), a query, a hop budget (Intn(6)−1, −1 ⇒ unbounded) and whether
// the destination doubles as the early stop.
//
// ReachFromCounted (from the distinct seed objects) and SPJReachCounted
// (from the first) must give the oracle's answer, and on a negative answer
// its count: the infection order within an instant is free, so counts of a
// sweep cut short at the destination may differ. AppendSemProfileFrom must
// give the oracle's whole profile, or with an early stop the destination's
// entry.
func FuzzGridSweepVsOracle(f *testing.F) {
	// TestSweepCountsUnchanged's dataset seed, pool, budget and deferred
	// second carrier, with and without the early stop.
	f.Add([]byte{0, 14, 40, 0, 0, 0, 16, 0, 0, 25, 10, 30, 2, 3, 0, 0, 10, 1, 20, 0, 0, 0, 5, 5, 1})
	f.Add([]byte{0, 14, 40, 0, 0, 0, 16, 0, 0, 25, 10, 30, 2, 3, 0, 0, 10, 1, 20, 0, 0, 0, 5, 5, 0})
	// TestMultiSourceMatchesOracle's dataset seed, default Params, four
	// seeds from the interval start and an unbounded budget.
	f.Add([]byte{0, 5, 100, 0, 0, 0, 17, 0, 0, 0, 20, 80, 3, 1, 0, 0, 4, 0, 0, 2, 0, 0, 5, 0, 0, 6, 0, 0})
	// Tick buckets, cells narrower than the contact distance, no pool.
	f.Add([]byte{0, 14, 90, 0, 0, 0, 5, 16, 1, 0, 0, 89, 2, 0, 0, 0, 2, 2, 30, 0, 0, 0, 13, 3, 1})
	f.Add([]byte{0, 8, 119, 0, 0, 0, 9, 9, 5, 2, 3, 110, 1, 7, 1, 0, 0, 0, 0, 1, 0, 0})

	f.Fuzz(gridSweepVsOracle)
}

// TestGridSweepVsOracleSeeded runs the fuzz body over 2000 seeded inputs.
func TestGridSweepVsOracleSeeded(t *testing.T) {
	testgen.Seeded(t, 20261017, 2000, gridSweepVsOracle)
}

func gridSweepVsOracle(t *testing.T, data []byte) {
	ctx := context.Background()
	src := testgen.New(data)
	sp := src.Spec(16, 120, fuzzEnvSide)
	d := sp.Dataset()
	p := Params{}
	if c := src.Intn(17); c > 0 {
		p.CellSize = fuzzEnvSide / float64(c)
	}
	p.BucketTicks, p.PoolPages = src.Intn(25), src.Intn(33)-1
	ix, err := Build(d, p)
	if err != nil {
		t.Fatal(err)
	}
	qs := src.Query(sp.Objects, sp.Ticks)
	seeds, objs, to, iv := qs.Seeds, qs.Objs, qs.Dst, qs.Interval
	hopBudget := int32(src.Intn(6) - 1)
	early := src.Bool()
	oracle := queries.NewOracle(contact.Extract(d))

	wantOK, wantN := oracle.ReachableFromCounted(objs, to, iv)
	gotOK, gotN, err := ix.ReachFromCounted(ctx, objs, to, iv, nil)
	if err != nil || gotOK != wantOK || (!wantOK && gotN != wantN) {
		t.Fatalf("ReachFromCounted(%v → %d, %v) = %v, %d (%v); oracle %v, %d", objs, to, iv, gotOK, gotN, err, wantOK, wantN)
	}
	q := queries.Query{Src: objs[0], Dst: to, Interval: iv}
	wantOK, wantN = oracle.ReachableFromCounted(objs[:1], to, iv)
	gotOK, gotN, err = ix.SPJReachCounted(ctx, q, nil)
	if err != nil || gotOK != wantOK || (!wantOK && gotN != wantN) {
		t.Fatalf("SPJReachCounted(%v) = %v, %d (%v); oracle %v, %d", q, gotOK, gotN, err, wantOK, wantN)
	}

	earlyDst := queries.NoObject
	if early {
		earlyDst = to
	}
	want, _ := oracle.ProfileFrom(seeds, iv, hopBudget, earlyDst)
	got, _, err := ix.AppendSemProfileFrom(ctx, nil, seeds, iv, hopBudget, earlyDst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if early {
		want, got = profileEntryOf(want, to), profileEntryOf(got, to)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("AppendSemProfileFrom(%+v, %v, budget %d, early %d) = %v; oracle %v", seeds, iv, hopBudget, earlyDst, got, want)
	}
}

// profileEntryOf is o's entry of a sorted profile, alone, or nothing.
func profileEntryOf(prof []queries.ProfileEntry, o trajectory.ObjectID) []queries.ProfileEntry {
	i, ok := slices.BinarySearchFunc(prof, o, func(e queries.ProfileEntry, o trajectory.ObjectID) int { return int(e.Obj) - int(o) })
	if !ok {
		return nil
	}
	return prof[i : i+1]
}
