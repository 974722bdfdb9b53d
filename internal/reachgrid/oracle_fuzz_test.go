package reachgrid

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"streach/internal/contact"
	"streach/internal/geo"
	"streach/internal/mobility"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// fuzzEnvSide is the side of the generated datasets' square environment:
// at most 16 objects in 160 m × 160 m with the default 25 m contact
// distance meet often.
const fuzzEnvSide = 160

// FuzzGridSweepVsOracle drives the grid's three sweeps over generated
// datasets and checks them against the oracle. From the fuzz values it
// derives a random-waypoint dataset of 2–16 objects and 1–120 ticks, the
// grid's Params (cell 0 ⇒ default, else fuzzEnvSide/cell%17 wide, down to
// below the contact distance; bucket%25 ticks, 0 ⇒ default; pool%33-1
// pages, so -1 disables the pool and a few pages evict), an interval
// inside the time domain, 1–4 seeds (three spec bytes each: object, hops,
// start offset — past iv.Hi included), a hop budget (negative ⇒
// unbounded) and a destination that doubles as the early stop when early.
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
	f.Add(int64(16), uint8(14), uint8(160), uint8(0), uint8(0), uint8(25), []byte{3, 0, 0, 10, 1, 20}, uint8(10), uint8(100), uint8(5), int8(4), true)
	f.Add(int64(16), uint8(14), uint8(160), uint8(0), uint8(0), uint8(25), []byte{3, 0, 0, 10, 1, 20}, uint8(10), uint8(100), uint8(5), int8(4), false)
	// TestMultiSourceMatchesOracle's dataset seed, default Params, up to
	// four seeds from the interval start and an unbounded budget.
	f.Add(int64(17), uint8(35), uint8(100), uint8(0), uint8(0), uint8(0), []byte{1, 0, 0, 4, 0, 0, 9, 0, 0, 12, 0, 0}, uint8(20), uint8(90), uint8(6), int8(-1), false)
	// Tick buckets, cells narrower than the contact distance, no pool.
	f.Add(int64(5), uint8(14), uint8(90), uint8(16), uint8(1), uint8(0), []byte{0, 0, 0, 2, 2, 30}, uint8(0), uint8(89), uint8(13), int8(2), true)
	f.Add(int64(9), uint8(8), uint8(119), uint8(9), uint8(5), uint8(2), []byte{7, 1, 0}, uint8(3), uint8(110), uint8(1), int8(-1), false)

	f.Fuzz(gridSweepVsOracle)
}

// TestGridSweepVsOracleSeeded is FuzzGridSweepVsOracle's body over inputs
// drawn from a fixed seed: 2000 cases, 200 under -short.
func TestGridSweepVsOracleSeeded(t *testing.T) {
	cases := 2000
	if testing.Short() {
		cases = 200
	}
	rng := rand.New(rand.NewSource(20261017))
	u8 := func() uint8 { return uint8(rng.Intn(256)) }
	for i := 0; i < cases; i++ {
		dataSeed := rng.Int63n(1 << 20)
		objects, ticks, cell, bucket, pool := u8(), u8(), u8(), u8(), u8()
		spec := make([]byte, rng.Intn(13))
		rng.Read(spec)
		lo, span, dst := u8(), u8(), u8()
		budget, early := int8(u8()), rng.Intn(2) == 0
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("case %d: gridSweepVsOracle(%d, %d, %d, %d, %d, %d, %v, %d, %d, %d, %d, %v)",
						i, dataSeed, objects, ticks, cell, bucket, pool, spec, lo, span, dst, budget, early)
				}
			}()
			gridSweepVsOracle(t, dataSeed, objects, ticks, cell, bucket, pool, spec, lo, span, dst, budget, early)
		}()
	}
}

func gridSweepVsOracle(t *testing.T, dataSeed int64, objects, ticks, cell, bucket, pool uint8, spec []byte, lo, span, dst uint8, budget int8, early bool) {
	ctx := context.Background()
	n, nt := 2+int(objects)%15, 1+int(ticks)%120
	d := mobility.RandomWaypoint(mobility.RWPConfig{
		NumObjects: n, NumTicks: nt, Seed: dataSeed,
		Env: geo.NewRect(geo.Point{}, geo.Point{X: fuzzEnvSide, Y: fuzzEnvSide}),
	})
	p := Params{BucketTicks: int(bucket) % 25, PoolPages: int(pool)%33 - 1}
	if c := int(cell) % 17; c > 0 {
		p.CellSize = fuzzEnvSide / float64(c)
	}
	ix, err := Build(d, p)
	if err != nil {
		t.Fatal(err)
	}
	iv := contact.Interval{Lo: trajectory.Tick(int(lo) % nt)}
	iv.Hi = min(iv.Lo+trajectory.Tick(span), trajectory.Tick(nt-1))

	byteAt := func(i int) int {
		if i < len(spec) {
			return int(spec[i])
		}
		return 0
	}
	var seeds []queries.SeedState
	var objs []trajectory.ObjectID
	for i := 0; i < 1+min(len(spec)/3, 3); i++ {
		s := queries.SeedState{
			Obj:   trajectory.ObjectID(byteAt(3*i) % n),
			Hops:  int32(byteAt(3*i+1) % 3),
			Start: iv.Lo + trajectory.Tick(byteAt(3*i+2)%(int(span)+2)),
		}
		seeds = append(seeds, s)
		if !slices.Contains(objs, s.Obj) {
			objs = append(objs, s.Obj)
		}
	}
	to := trajectory.ObjectID(int(dst) % n)
	hopBudget := int32(-1)
	if budget >= 0 {
		hopBudget = int32(budget) % 5
	}
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
