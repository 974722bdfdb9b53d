package reachgraph

import (
	"context"
	"slices"
	"sync"
	"testing"

	"streach/internal/dn"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// TestSharedRecordsUnderConcurrentQueries runs forward sweeps, backward
// sweeps and BM-BFS point queries at once on one resident disk index. The
// three read different sections of the same records, so queries complete
// shared records on copies while others publish theirs; every answer must
// still be the oracle's. Under -race it also checks that a published record
// is never written.
func TestSharedRecordsUnderConcurrentQueries(t *testing.T) {
	f := newFixture(t, 60, 300, 23)
	ix, err := Build(f.g, Params{PoolPages: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if n := ix.store.NumPages(); n >= 1<<12 {
		t.Fatalf("index has %d pages; the test wants it resident", n)
	}
	work := f.workload(48, 20, 200, 23)
	type answer struct {
		reach  bool
		fw, bw []queries.ProfileEntry
	}
	want := make([]answer, len(work))
	for i, q := range work {
		want[i].reach = f.oracle.Reachable(q)
		want[i].fw, _ = f.oracle.ProfileFrom(seedsOf(q.Src), q.Interval, queries.UnboundedHops, queries.NoObject)
		for j := range want[i].fw {
			want[i].fw[j].Hops = -1
		}
		want[i].bw = f.oracle.ReverseProfileFrom([]trajectory.ObjectID{q.Src}, q.Interval)
	}

	const workers, rounds = 6, 3
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prof []queries.ProfileEntry
			for r := 0; r < rounds; r++ {
				for k := range work {
					i := (k + 7*w) % len(work)
					q := work[i]
					var err error
					switch (w + k + r) % 3 {
					case 0:
						if prof, _, err = ix.AppendProfile(ctx, prof[:0], seedsOf(q.Src), q.Interval, queries.Forward, nil); err == nil && !slices.Equal(prof, want[i].fw) {
							t.Errorf("forward sweep %d: %v, oracle %v", i, prof, want[i].fw)
						}
					case 1:
						if prof, _, err = ix.AppendProfile(ctx, prof[:0], seedsOf(q.Src), q.Interval, queries.Backward, nil); err == nil && !slices.Equal(prof, want[i].bw) {
							t.Errorf("backward sweep %d: %v, oracle %v", i, prof, want[i].bw)
						}
					case 2:
						var ok bool
						if ok, _, err = ix.ReachStrategyCounted(ctx, q, BMBFS, nil); err == nil && ok != want[i].reach {
							t.Errorf("BM-BFS %+v: %v, oracle %v", q, ok, want[i].reach)
						}
					}
					if err != nil {
						t.Error(err)
					}
					if t.Failed() {
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// The queries did share, and completed records on copies.
	table := ix.decoded.Load()
	if table == nil {
		t.Fatal("no query published")
	}
	completed := 0
	for id := range f.g.Nodes {
		if s := table.load(dn.NodeID(id)); s != nil && s.have&(secOut|secIn) == secOut|secIn {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("no shared record carries both the sections of a forward and of a backward query")
	}
}
