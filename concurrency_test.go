package streach_test

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"streach"
)

// TestConcurrencyConformance hammers every registered backend with
// EvaluateBatch at Workers=GOMAXPROCS (run under -race in CI) and asserts
// that parallel evaluation stays exact: answers match the oracle, every
// per-query I/O delta is sane, the deltas sum to the engine's cumulative
// totals, and the totals of all engines sharing one buffer pool sum to the
// pool's global atomic counters.
func TestConcurrencyConformance(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 40, NumTicks: 320, Seed: 19,
	})
	oracle := ds.Contacts().Oracle()
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      80,
		MinLen:     10,
		MaxLen:     ds.NumTicks() / 2,
		Seed:       23,
	})
	want := make([]bool, len(work))
	for i, q := range work {
		want[i] = oracle.Reachable(q)
	}

	pool := streach.NewBufferPool(128)
	ctx := context.Background()
	var sumAcrossEngines streach.IOStats

	for _, name := range streach.Backends() {
		e, err := streach.Open(name, ds, streach.Options{Pool: pool})
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		results, err := streach.EvaluateBatch(ctx, e, work, streach.BatchOptions{
			Workers: runtime.GOMAXPROCS(0),
		})
		if err != nil {
			t.Fatalf("%q batch: %v", name, err)
		}
		var sum streach.IOStats
		for i, r := range results {
			if !r.Evaluated {
				t.Fatalf("%q: query %d not evaluated", name, i)
			}
			if r.Reachable != want[i] {
				t.Fatalf("%q disagrees with oracle on %v under concurrency", name, work[i])
			}
			if r.IO.RandomReads < 0 || r.IO.SequentialReads < 0 || r.IO.BufferHits < 0 {
				t.Fatalf("%q: negative I/O delta %+v", name, r.IO)
			}
			sum.RandomReads += r.IO.RandomReads
			sum.SequentialReads += r.IO.SequentialReads
			sum.BufferHits += r.IO.BufferHits
		}
		totals := e.Stats().IO
		if sum.RandomReads != totals.RandomReads ||
			sum.SequentialReads != totals.SequentialReads ||
			sum.BufferHits != totals.BufferHits {
			t.Fatalf("%q: per-query delta sum %+v != engine totals %+v", name, sum, totals)
		}
		sumAcrossEngines.RandomReads += totals.RandomReads
		sumAcrossEngines.SequentialReads += totals.SequentialReads
		sumAcrossEngines.BufferHits += totals.BufferHits
	}

	ps := pool.Stats()
	if ps.Hits != sumAcrossEngines.BufferHits {
		t.Fatalf("pool hits %d != summed engine buffer hits %d", ps.Hits, sumAcrossEngines.BufferHits)
	}
	if ps.Misses != sumAcrossEngines.RandomReads+sumAcrossEngines.SequentialReads {
		t.Fatalf("pool misses %d != summed engine reads %d",
			ps.Misses, sumAcrossEngines.RandomReads+sumAcrossEngines.SequentialReads)
	}
	if ps.Hits == 0 {
		t.Fatal("no pool hits over the whole sweep; pool is not being shared")
	}
}

// TestConcurrentSetQueries runs point and set queries concurrently on one
// engine and checks set answers against the oracle — the set fallback path
// shares the engine with in-flight point queries.
func TestConcurrentSetQueries(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 35, NumTicks: 250, Seed: 29,
	})
	oracle := ds.Contacts().Oracle()
	e, err := streach.Open("reachgrid", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			src := streach.ObjectID(w % ds.NumObjects())
			iv := streach.NewInterval(streach.Tick(10*w), streach.Tick(10*w)+100)
			sr, err := e.ReachableSet(ctx, src, iv)
			if err != nil {
				done <- err
				return
			}
			want := oracle.ReachableSet(src, iv)
			got := append([]streach.ObjectID(nil), sr.Objects...)
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("worker %d: set %v, oracle %v", w, got, want)
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchThroughputScales asserts the acceptance bar of the concurrency
// refactor: for every memory-resident backend, a 4-worker batch is at least
// 1.5× faster than the same batch on 1 worker. Skipped on small machines
// and under the race detector, where relative timing is meaningless; CI
// runs it on 4-vCPU runners.
func TestBatchThroughputScales(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts throughput ratios")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥4 CPUs for a meaningful speedup bound, have %d", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 120, NumTicks: 600, Seed: 31,
	})
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      240,
		MinLen:     150,
		MaxLen:     300,
		Seed:       37,
	})
	ctx := context.Background()
	run := func(e streach.Engine, workers int) time.Duration {
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ { // best-of-3 damps scheduler noise
			start := time.Now()
			if _, err := streach.EvaluateBatch(ctx, e, work, streach.BatchOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); best == 0 || el < best {
				best = el
			}
		}
		return best
	}
	for _, name := range []string{"reachgraph-mem", "oracle"} {
		e, err := streach.Open(name, ds, streach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run(e, 4) // warm-up: JIT-free, but page in data structures
		serial := run(e, 1)
		parallel := run(e, 4)
		speedup := float64(serial) / float64(parallel)
		t.Logf("%s: 1 worker %v, 4 workers %v, speedup %.2f×", name, serial, parallel, speedup)
		if speedup <= 1.5 {
			t.Errorf("%s: 4-worker speedup %.2f× ≤ 1.5×", name, speedup)
		}
	}
}
