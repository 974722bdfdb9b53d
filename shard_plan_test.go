package streach_test

import (
	"context"
	"testing"

	"streach"
)

// TestShardPlannerCountsPinned pins what the scatter-gather planner does,
// not only what it answers: over a fixed batch of point and set queries on
// a fresh engine, the evaluation frontier the point queries report, the
// boundary objects handed across the cut, and the page accesses. A planner
// change that keeps answers exact but re-expands, re-routes or reorders
// work fails here by backend. The page accesses were re-recorded when the
// ReachGraph layout numbered its vertices partition by partition (layout
// version 4, a smaller index); expansions and hand-offs did not move.
func TestShardPlannerCountsPinned(t *testing.T) {
	ds := hotpathDataset()
	work := hotpathWorkload(ds)
	ctx := context.Background()
	for _, tc := range []struct {
		backend           string
		expanded, members int
		frontier          int64
		io                streach.IOStats
	}{
		{"shard:4:reachgraph", 10405, 929, 1613, streach.IOStats{RandomReads: 15, SequentialReads: 18, BufferHits: 3748}},
		{"shard:4:spatial:reachgraph", 8565, 929, 1214, streach.IOStats{RandomReads: 13, SequentialReads: 16, BufferHits: 2991}},
	} {
		e, err := streach.Open(tc.backend, ds, streach.Options{PoolPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		expanded, members := 0, 0
		for _, q := range work {
			r, err := e.Reachable(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			expanded += r.Expanded
			s, err := e.ReachableSet(ctx, q.Src, q.Interval)
			if err != nil {
				t.Fatal(err)
			}
			members += len(s.Objects)
		}
		st := e.Stats()
		if expanded != tc.expanded || members != tc.members || st.CrossShardFrontier != tc.frontier {
			t.Errorf("%s: %d expanded, %d set members, %d frontier hand-offs; want %d, %d, %d",
				tc.backend, expanded, members, st.CrossShardFrontier, tc.expanded, tc.members, tc.frontier)
		}
		if io := st.IO; io.RandomReads != tc.io.RandomReads || io.SequentialReads != tc.io.SequentialReads ||
			io.BufferHits != tc.io.BufferHits {
			t.Errorf("%s: I/O %+v, want %+v", tc.backend, io, tc.io)
		}
	}
}
