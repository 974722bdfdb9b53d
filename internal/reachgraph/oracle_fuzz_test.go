package reachgraph

import (
	"context"
	"errors"
	"slices"
	"testing"

	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/testgen"
)

// graphSeeds are the fuzzers' seed corpus, taken from the fixtures of the
// tests that pin this read path, in newGraphCase's layout. The first two
// build partitions that span pages (TestGraphSeedsSpanPages).
var graphSeeds = [][]byte{
	// TestCorruptionConfinedToItsBlob's fixture (RWP 40 × 250, seed 61,
	// paper density, default depth) behind a 64-page pool, and again at
	// depth 64 behind a pool of 8.
	{0, 38, 0, 249, 0, 0, 0, 61, 0, 0, 1, 20, 200, 2, 3, 0, 0, 17, 0, 40, 0, 0, 0, 29, 0},
	{0, 38, 0, 249, 0, 0, 0, 61, 0, 64, 9, 0, 249, 3, 5, 0, 10, 9, 0, 0, 33, 0, 7, 0, 0, 0, 12, 3},
	// TestSweepCountsUnchanged's dataset seed, ticks and 16-page pool on 40
	// objects, seeds activating at, inside and after the interval.
	{0, 38, 1, 143, 0, 0, 0, 16, 0, 0, 17, 0, 40, 0, 160, 3, 2, 0, 0, 9, 0, 50, 13, 0, 37, 19, 0, 162, 21, 1},
	// A dense small environment, no pool, and a single-tick domain.
	{0, 14, 0, 119, 0, 0, 0, 5, 3, 9, 0, 10, 100, 1, 1, 0, 2, 0, 0, 0, 7, 2},
	{0, 3, 0, 0, 0, 0, 0, 9, 1, 1, 32, 0, 0, 0, 0, 1, 0},
}

// graphCase is one generated input: an index over a generated dataset, the
// memory index over the same graph, its oracle, one query and a point-query
// strategy.
type graphCase struct {
	ix       *Index
	mem      *Mem
	oracle   *queries.Oracle
	q        testgen.Query
	strategy Strategy
}

// newGraphCase reads a case from src: an RWP or clustered dataset of 2–40
// objects and 1–400 ticks in a square of 40·k m (k = 0: the paper's
// density); Params with
// PartitionDepth Intn(65) (0: the default) and PoolPages Intn(33)−1 (−1
// disables the pool, 0 is the default 64, a few pages evict); a query; and
// a strategy (Intn(4)).
func newGraphCase(tb testing.TB, src *testgen.Source) *graphCase {
	tb.Helper()
	sp := src.Spec(40, 400, 0)
	net := sp.Network()
	g := dn.Build(net)
	ix, err := Build(g, Params{PartitionDepth: src.Intn(65), PoolPages: src.Intn(33) - 1})
	if err != nil {
		tb.Fatal(err)
	}
	mem, err := NewMem(g, ix.params.Resolutions)
	if err != nil {
		tb.Fatal(err)
	}
	return &graphCase{ix: ix, mem: mem, oracle: queries.NewOracle(net), q: src.Query(sp.Objects, sp.Ticks), strategy: Strategy(src.Intn(4))}
}

// reach is the case's point query under strategy s, and profile its sweep
// in direction dir. Each fails unless the query verified at most the pages
// it was charged for: it verifies a page of what it read at most once.
func (c *graphCase) reach(tb testing.TB, s Strategy) (bool, error) {
	var acct pagefile.Stats
	defer checkVerifiedCharged(tb, &acct)
	ok, _, err := c.ix.ReachFromCounted(context.Background(), c.q.Objs, c.q.Dst, c.q.Interval, s, &acct)
	return ok, err
}

func (c *graphCase) profile(tb testing.TB, dir queries.Direction) ([]queries.ProfileEntry, error) {
	var acct pagefile.Stats
	defer checkVerifiedCharged(tb, &acct)
	prof, _, err := c.ix.AppendProfile(context.Background(), nil, c.q.Seeds, c.q.Interval, dir, nil, &acct)
	return prof, err
}

func checkVerifiedCharged(tb testing.TB, acct *pagefile.Stats) {
	if charged := acct.RandomReads + acct.SequentialReads + acct.BufferHits; acct.PagesVerified > charged {
		tb.Fatalf("%d pages verified, %d charged", acct.PagesVerified, charged)
	}
}

// want returns the oracle's answers for the case: its point query, and its
// profile forward (arrival ticks only: the run DAG knows no hops) and
// backward.
func (c *graphCase) want() (reach bool, forward, backward []queries.ProfileEntry) {
	q := c.q
	reach, _ = c.oracle.ReachableFromCounted(q.Objs, q.Dst, q.Interval)
	forward, _ = c.oracle.ProfileFrom(q.Seeds, q.Interval, queries.UnboundedHops, queries.NoObject)
	for i := range forward {
		forward[i].Hops = -1
	}
	return reach, forward, c.oracle.ReverseProfileFrom(q.Objs, q.Interval)
}

// FuzzGraphSweepVsOracle holds both indexes' read paths, the disk Index's
// and the memory Mem's record views, to the oracle on generated datasets
// and Params (newGraphCase): ReachFromCounted under all four strategies
// gives the oracle's answer, and AppendProfile, forward from seeds that
// activate at their own ticks and backward, its profile. Every disk query
// verifies at most the pages it is charged for.
func FuzzGraphSweepVsOracle(f *testing.F) {
	for _, s := range graphSeeds {
		f.Add(s)
	}
	f.Fuzz(graphSweepVsOracle)
}

// TestGraphSweepVsOracleSeeded runs the fuzz body over 2000 seeded inputs.
func TestGraphSweepVsOracleSeeded(t *testing.T) {
	testgen.Seeded(t, 20261017, 2000, graphSweepVsOracle)
}

func graphSweepVsOracle(t *testing.T, data []byte) {
	c := newGraphCase(t, testgen.New(data))
	q, ctx := c.q, context.Background()
	wantOK, wantFw, wantBw := c.want()
	for dir, want := range map[queries.Direction][]queries.ProfileEntry{queries.Forward: wantFw, queries.Backward: wantBw} {
		if prof, err := c.profile(t, dir); err != nil || !slices.Equal(prof, want) {
			t.Fatalf("AppendProfile(%+v, %v, direction %d) = %v (%v); oracle %v", q.Seeds, q.Interval, dir, prof, err, want)
		}
		if prof, _, err := c.mem.AppendProfile(ctx, nil, q.Seeds, q.Interval, dir, nil); err != nil || !slices.Equal(prof, want) {
			t.Fatalf("mem AppendProfile(%+v, %v, direction %d) = %v (%v); oracle %v", q.Seeds, q.Interval, dir, prof, err, want)
		}
	}
	for _, s := range []Strategy{BMBFS, BBFS, EBFS, EDFS} {
		if got, err := c.reach(t, s); err != nil || got != wantOK {
			t.Fatalf("%v ReachFromCounted(%v → %d, %v) = %v (%v); oracle %v", s, q.Objs, q.Dst, q.Interval, got, err, wantOK)
		}
		if got, _, err := c.mem.ReachFromCounted(ctx, q.Objs, q.Dst, q.Interval, s); err != nil || got != wantOK {
			t.Fatalf("mem %v ReachFromCounted(%v → %d, %v) = %v (%v); oracle %v", s, q.Objs, q.Dst, q.Interval, got, err, wantOK)
		}
	}
}

// FuzzCorruptionNeverWrong is the integrity promise as a property: over the
// same generated cases, followed by an offset (Intn(2¹⁶)), the byte at that
// offset of each page of the store is damaged in turn (CorruptPage, one
// page at a time), and each time the case's point query, under its
// strategy, and its profile in both directions either fail with an error
// wrapping pagefile.ErrCorruptBlob or give exactly the oracle's answer —
// never a panic, another error or a wrong answer.
func FuzzCorruptionNeverWrong(f *testing.F) {
	for i, s := range graphSeeds {
		// A byte in the middle of the pages, a different one each seed.
		off := pagefile.PageSize/2 + 97*i
		f.Add(append(slices.Clip(s), byte(off>>8), byte(off)))
	}
	f.Fuzz(corruptionNeverWrong)
}

// TestCorruptionNeverWrongSeeded runs the fuzz body over 1000 seeded inputs.
func TestCorruptionNeverWrongSeeded(t *testing.T) {
	testgen.Seeded(t, 20261018, 1000, corruptionNeverWrong)
}

func corruptionNeverWrong(t *testing.T, data []byte) {
	src := testgen.New(data)
	c := newGraphCase(t, src)
	off := src.Intn(1 << 16)
	wantOK, wantFw, wantBw := c.want()
	st := c.ix.Store()
	for p := int64(0); p < st.NumPages(); p++ {
		damage := func() {
			if err := st.CorruptPage(p, off); err != nil {
				t.Fatal(err)
			}
		}
		check := func(what string, err error, same bool) {
			t.Helper()
			switch {
			case errors.Is(err, pagefile.ErrCorruptBlob):
			case err != nil:
				t.Fatalf("byte %d of page %d damaged: %s: an error that is not ErrCorruptBlob: %v", off%pagefile.PageSize, p, what, err)
			case !same:
				t.Fatalf("byte %d of page %d damaged: %s: a wrong answer", off%pagefile.PageSize, p, what)
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
		c := newGraphCase(t, testgen.New(s))
		long := 0
		for _, ref := range c.ix.partRefs {
			if ref.Bytes > pagefile.PageSize {
				long++
			}
		}
		if long == 0 {
			t.Errorf("seed %v builds no partition longer than a page", s)
		}
	}
}
