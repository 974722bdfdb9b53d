package reachgraph

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/geo"
	"streach/internal/mobility"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// graphSeed is one input of the generator behind FuzzGraphSweepVsOracle and
// FuzzCorruptionNeverWrong, in the fuzz values' own types (see newGraphCase).
type graphSeed struct {
	dataSeed                  int64
	objects, env, depth, pool uint8
	ticks                     uint16
	spec                      []byte
	lo, span                  uint16
	dst, strategy             uint8
}

// graphSeeds are the fuzzers' seed corpus, taken from the fixtures of the
// tests that pin this read path. The first two build partitions that span
// pages (TestGraphSeedsSpanPages).
var graphSeeds = []graphSeed{
	// TestCorruptionConfinedToItsBlob's fixture (40 × 250, seed 61, paper
	// density, default depth) behind a 64-page pool, and again at depth 64
	// behind a pool of 8.
	{61, 38, 0, 0, 1, 249, []byte{3, 0, 17, 40}, 20, 200, 29, 0},
	{61, 38, 0, 64, 9, 249, []byte{5, 10, 9, 0, 33, 7}, 0, 249, 12, 3},
	// TestSweepCountsUnchanged's dataset seed, ticks and 16-page pool on 40
	// objects, seeds activating before, inside and after the interval.
	{16, 38, 0, 0, 17, 399, []byte{2, 0, 9, 50, 13, 200, 19, 255}, 40, 160, 21, 1},
	// A dense small environment, no pool, and a single-tick domain.
	{5, 14, 3, 9, 0, 119, []byte{1, 2}, 10, 100, 7, 2},
	{9, 3, 1, 1, 32, 0, []byte{0}, 0, 0, 1, 0},
}

// graphCase is one generated input: an index over a random-waypoint
// dataset, the memory index over the same graph, its oracle, and one query
// — a seed frontier, a destination, an interval and a point-query strategy.
type graphCase struct {
	ix       *Index
	mem      *Mem
	oracle   *queries.Oracle
	seeds    []queries.SeedState
	objs     []trajectory.ObjectID // the seeds' distinct objects
	dst      trajectory.ObjectID
	iv       contact.Interval
	strategy Strategy
}

// newGraphCase derives a case from fuzz values: 2–40 objects and 1–400
// ticks of random waypoint, in a square of 40·(env%16) m (0: the paper's
// density); Params with PartitionDepth depth%65 (0: the default) and
// PoolPages pool%33-1 (-1 disables the pool, 0 is the default 64, a few
// pages evict); an interval inside the time domain; 1–4 seeds (two spec
// bytes each: object, start offset — past iv.Hi included); a destination
// and a strategy.
func newGraphCase(tb testing.TB, s graphSeed) *graphCase {
	tb.Helper()
	n, nt := 2+int(s.objects)%39, 1+int(s.ticks)%400
	cfg := mobility.RWPConfig{NumObjects: n, NumTicks: nt, Seed: s.dataSeed}
	if side := 40 * float64(s.env%16); side > 0 {
		cfg.Env = geo.NewRect(geo.Point{}, geo.Point{X: side, Y: side})
	}
	net := contact.Extract(mobility.RandomWaypoint(cfg))
	g := dn.Build(net)
	ix, err := Build(g, Params{PartitionDepth: int(s.depth) % 65, PoolPages: int(s.pool)%33 - 1})
	if err != nil {
		tb.Fatal(err)
	}
	mem, err := NewMem(g, ix.params.Resolutions)
	if err != nil {
		tb.Fatal(err)
	}
	c := &graphCase{ix: ix, mem: mem, oracle: queries.NewOracle(net), dst: trajectory.ObjectID(int(s.dst) % n), strategy: Strategy(s.strategy % 4)}
	c.iv.Lo = trajectory.Tick(int(s.lo) % nt)
	c.iv.Hi = min(c.iv.Lo+trajectory.Tick(int(s.span)%nt), trajectory.Tick(nt-1))
	byteAt := func(i int) int {
		if i < len(s.spec) {
			return int(s.spec[i])
		}
		return 0
	}
	for i := 0; i < 1+min(len(s.spec)/2, 3); i++ {
		seed := queries.SeedState{
			Obj:   trajectory.ObjectID(byteAt(2*i) % n),
			Start: c.iv.Lo + trajectory.Tick(byteAt(2*i+1)%(int(c.iv.Len())+2)),
		}
		c.seeds = append(c.seeds, seed)
		if !slices.Contains(c.objs, seed.Obj) {
			c.objs = append(c.objs, seed.Obj)
		}
	}
	return c
}

// reach is the case's point query under strategy s, with its page counts
// held to verified ≤ charged.
func (c *graphCase) reach(tb testing.TB, s Strategy) (bool, error) {
	tb.Helper()
	var acct pagefile.Stats
	ok, _, err := c.ix.ReachFromCounted(context.Background(), c.objs, c.dst, c.iv, s, &acct)
	checkVerifiedCharged(tb, acct)
	return ok, err
}

// profile is the case's sweep in direction dir, with its page counts held
// to verified ≤ charged.
func (c *graphCase) profile(tb testing.TB, dir queries.Direction) ([]queries.ProfileEntry, error) {
	tb.Helper()
	var acct pagefile.Stats
	prof, _, err := c.ix.AppendProfile(context.Background(), nil, c.seeds, c.iv, dir, nil, &acct)
	checkVerifiedCharged(tb, acct)
	return prof, err
}

// checkVerifiedCharged fails unless a query verified at most the pages it
// was charged for: it verifies a page of what it read at most once.
func checkVerifiedCharged(tb testing.TB, acct pagefile.Stats) {
	tb.Helper()
	if charged := acct.RandomReads + acct.SequentialReads + acct.BufferHits; acct.PagesVerified > charged {
		tb.Fatalf("%d pages verified, %d charged", acct.PagesVerified, charged)
	}
}

// want returns the oracle's answers for the case: its point query, and its
// profile forward (arrival ticks only: the run DAG knows no hops) and
// backward.
func (c *graphCase) want() (reach bool, forward, backward []queries.ProfileEntry) {
	reach, _ = c.oracle.ReachableFromCounted(c.objs, c.dst, c.iv)
	forward, _ = c.oracle.ProfileFrom(c.seeds, c.iv, queries.UnboundedHops, queries.NoObject)
	for i := range forward {
		forward[i].Hops = -1
	}
	return reach, forward, c.oracle.ReverseProfileFrom(c.objs, c.iv)
}

func addGraphSeeds(f *testing.F, corrupt bool) {
	for i, s := range graphSeeds {
		if corrupt {
			// A byte in the middle of the pages, a different one each seed.
			f.Add(s.dataSeed, s.objects, s.ticks, s.env, s.depth, s.pool, s.spec, s.lo, s.span, s.dst, s.strategy, uint16(pagefile.PageSize/2+97*i))
		} else {
			f.Add(s.dataSeed, s.objects, s.ticks, s.env, s.depth, s.pool, s.spec, s.lo, s.span, s.dst, s.strategy)
		}
	}
}

// FuzzGraphSweepVsOracle holds both indexes' read paths, the disk Index's
// and the memory Mem's record views, to the oracle on generated datasets
// and Params (newGraphCase): ReachFromCounted under all four strategies
// gives the oracle's answer, and AppendProfile, forward from seeds that
// activate at their own ticks and backward, its profile. Every disk query
// verifies at most the pages it is charged for.
func FuzzGraphSweepVsOracle(f *testing.F) {
	addGraphSeeds(f, false)
	f.Fuzz(graphSweepVsOracle)
}

// TestGraphSweepVsOracleSeeded is FuzzGraphSweepVsOracle's body over inputs
// drawn from a fixed seed: 2000 cases, 200 under -short.
func TestGraphSweepVsOracleSeeded(t *testing.T) {
	cases := 2000
	if testing.Short() {
		cases = 200
	}
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < cases; i++ {
		s := randomGraphSeed(rng)
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("case %d: graphSweepVsOracle(%d, %d, %d, %d, %d, %d, %v, %d, %d, %d, %d)",
						i, s.dataSeed, s.objects, s.ticks, s.env, s.depth, s.pool, s.spec, s.lo, s.span, s.dst, s.strategy)
				}
			}()
			graphSweepVsOracle(t, s.dataSeed, s.objects, s.ticks, s.env, s.depth, s.pool, s.spec, s.lo, s.span, s.dst, s.strategy)
		}()
	}
}

// randomGraphSeed draws one fuzz input of the graph fuzzers from rng, each
// value uniform over its type (the spec 0–8 bytes long).
func randomGraphSeed(rng *rand.Rand) graphSeed {
	u8 := func() uint8 { return uint8(rng.Intn(256)) }
	u16 := func() uint16 { return uint16(rng.Intn(1 << 16)) }
	s := graphSeed{dataSeed: rng.Int63n(1 << 20)}
	s.objects, s.ticks, s.env, s.depth, s.pool = u8(), u16(), u8(), u8(), u8()
	s.spec = make([]byte, rng.Intn(9))
	rng.Read(s.spec)
	s.lo, s.span, s.dst, s.strategy = u16(), u16(), u8(), u8()
	return s
}

func graphSweepVsOracle(t *testing.T, dataSeed int64, objects uint8, ticks uint16, env, depth, pool uint8, spec []byte, lo, span uint16, dst, strategy uint8) {
	c := newGraphCase(t, graphSeed{dataSeed, objects, env, depth, pool, ticks, spec, lo, span, dst, strategy})
	ctx := context.Background()
	wantOK, wantFw, wantBw := c.want()
	for dir, want := range map[queries.Direction][]queries.ProfileEntry{queries.Forward: wantFw, queries.Backward: wantBw} {
		if prof, err := c.profile(t, dir); err != nil || !slices.Equal(prof, want) {
			t.Fatalf("AppendProfile(%+v, %v, direction %d) = %v (%v); oracle %v", c.seeds, c.iv, dir, prof, err, want)
		}
		if prof, _, err := c.mem.AppendProfile(ctx, nil, c.seeds, c.iv, dir, nil); err != nil || !slices.Equal(prof, want) {
			t.Fatalf("mem AppendProfile(%+v, %v, direction %d) = %v (%v); oracle %v", c.seeds, c.iv, dir, prof, err, want)
		}
	}
	for _, s := range []Strategy{BMBFS, BBFS, EBFS, EDFS} {
		if got, err := c.reach(t, s); err != nil || got != wantOK {
			t.Fatalf("%v ReachFromCounted(%v → %d, %v) = %v (%v); oracle %v", s, c.objs, c.dst, c.iv, got, err, wantOK)
		}
		if got, _, err := c.mem.ReachFromCounted(ctx, c.objs, c.dst, c.iv, s); err != nil || got != wantOK {
			t.Fatalf("mem %v ReachFromCounted(%v → %d, %v) = %v (%v); oracle %v", s, c.objs, c.dst, c.iv, got, err, wantOK)
		}
	}
}

// FuzzCorruptionNeverWrong is the integrity promise as a property: over the
// same generated cases, the byte at offset off of each page of the store is
// damaged in turn (CorruptPage, one page at a time), and each time the
// case's point query, under its strategy, and its profile in both
// directions either fail with an error wrapping pagefile.ErrCorruptBlob or
// give exactly the oracle's answer — never a panic, another error or a
// wrong answer.
func FuzzCorruptionNeverWrong(f *testing.F) {
	addGraphSeeds(f, true)
	f.Fuzz(func(t *testing.T, dataSeed int64, objects uint8, ticks uint16, env, depth, pool uint8, spec []byte, lo, span uint16, dst, strategy uint8, off uint16) {
		corruptionNeverWrong(t, graphSeed{dataSeed, objects, env, depth, pool, ticks, spec, lo, span, dst, strategy}, off)
	})
}

// TestCorruptionNeverWrongSeeded is FuzzCorruptionNeverWrong's body over
// inputs drawn from a fixed seed: 1000 cases, 100 under -short.
func TestCorruptionNeverWrongSeeded(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 100
	}
	rng := rand.New(rand.NewSource(20261018))
	for i := 0; i < cases; i++ {
		s := randomGraphSeed(rng)
		off := uint16(rng.Intn(1 << 16))
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("case %d: corruptionNeverWrong(%+v, %d)", i, s, off)
				}
			}()
			corruptionNeverWrong(t, s, off)
		}()
	}
}

func corruptionNeverWrong(t *testing.T, s graphSeed, off uint16) {
	c := newGraphCase(t, s)
	wantOK, wantFw, wantBw := c.want()
	st := c.ix.Store()
	for p := int64(0); p < st.NumPages(); p++ {
		damage := func() {
			if err := st.CorruptPage(p, int(off)); err != nil {
				t.Fatal(err)
			}
		}
		check := func(what string, err error, same bool) {
			t.Helper()
			switch {
			case errors.Is(err, pagefile.ErrCorruptBlob):
			case err != nil:
				t.Fatalf("byte %d of page %d damaged: %s: an error that is not ErrCorruptBlob: %v", int(off)%pagefile.PageSize, p, what, err)
			case !same:
				t.Fatalf("byte %d of page %d damaged: %s: a wrong answer", int(off)%pagefile.PageSize, p, what)
			}
		}
		damage()
		got, err := c.reach(t, c.strategy)
		check(c.strategy.String()+" ReachFromCounted", err, got == wantOK)
		prof, err := c.profile(t, queries.Forward)
		check("forward AppendProfile", err, slices.Equal(prof, wantFw))
		prof, err = c.profile(t, queries.Backward)
		check("backward AppendProfile", err, slices.Equal(prof, wantBw))
		damage() // and back
	}
}

// TestGraphSeedsSpanPages pins what the seed corpus is for: its first two
// cases build partitions longer than a page, the read path that verifies
// page by page.
func TestGraphSeedsSpanPages(t *testing.T) {
	for _, s := range graphSeeds[:2] {
		c := newGraphCase(t, s)
		long := 0
		for _, ref := range c.ix.partRefs {
			if ref.Bytes > pagefile.PageSize {
				long++
			}
		}
		if long == 0 {
			t.Errorf("seed %+v builds no partition longer than a page", s)
		}
	}
}
