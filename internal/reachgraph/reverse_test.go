package reachgraph

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// TestReverseSetMatchesOracle validates the backward sweep — disk, memory
// and the reference walk reverseReach — against the oracle's time-mirrored
// propagation, for single and multi-seed frontiers.
func TestReverseSetMatchesOracle(t *testing.T) {
	f := newFixture(t, 40, 300, 31)
	ix, err := Build(f.g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMem(f.g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		seeds []trajectory.ObjectID
		iv    contact.Interval
	}{
		{[]trajectory.ObjectID{0}, contact.Interval{Lo: 0, Hi: 299}},
		{[]trajectory.ObjectID{7}, contact.Interval{Lo: 50, Hi: 180}},
		{[]trajectory.ObjectID{13}, contact.Interval{Lo: 120, Hi: 120}},
		{[]trajectory.ObjectID{3, 9, 21}, contact.Interval{Lo: 30, Hi: 240}},
		{[]trajectory.ObjectID{39, 0}, contact.Interval{Lo: 250, Hi: 299}},
	}
	for _, tc := range cases {
		want := f.oracle.ReverseReachableSetFrom(tc.seeds, tc.iv)
		prof, _, err := ix.AppendProfile(ctx, nil, seedsOf(tc.seeds...), tc.iv, queries.Backward, nil, nil)
		if err != nil {
			t.Fatalf("disk reverse %v over %v: %v", tc.seeds, tc.iv, err)
		}
		if got := objectsOf(prof); !reflect.DeepEqual(got, want) {
			t.Fatalf("disk reverse %v over %v = %v, oracle %v", tc.seeds, tc.iv, got, want)
		}
		prof, _, err = m.AppendProfile(ctx, nil, seedsOf(tc.seeds...), tc.iv, queries.Backward, nil)
		if err != nil {
			t.Fatalf("mem reverse %v over %v: %v", tc.seeds, tc.iv, err)
		}
		if got := objectsOf(prof); !reflect.DeepEqual(got, want) {
			t.Fatalf("mem reverse %v over %v = %v, oracle %v", tc.seeds, tc.iv, got, want)
		}
		if ref := reverseReach(f.g, tc.seeds, tc.iv); !reflect.DeepEqual(ref, want) {
			t.Fatalf("reverseReach %v over %v = %v, oracle %v", tc.seeds, tc.iv, ref, want)
		}
	}
}

// reverseReach is the reference backward walk over the reduced graph:
// walking DN1 in-edges in reverse time order from the runs of the seed
// objects at iv.Hi, it returns every object that, holding an item at iv.Lo,
// delivers it to some seed by iv.Hi (the deliverer set; seeds included when
// the interval overlaps the time domain), sorted ascending. An in-edge
// u ← v means u is the adjacent run ending at Start(v)−1 that shares a
// member with v, so any member of u holding the item within u's span hands
// it to v's component, and by induction to a seed. A run starting at or
// before iv.Lo is not expanded further — its predecessors end before the
// interval.
func reverseReach(g *dn.Graph, seeds []trajectory.ObjectID, iv contact.Interval) []trajectory.ObjectID {
	iv = iv.Intersect(contact.Interval{Lo: 0, Hi: trajectory.Tick(g.NumTicks - 1)})
	if iv.Len() == 0 {
		return nil
	}
	visited := make([]bool, len(g.Nodes))
	var queue []dn.NodeID
	for _, o := range seeds {
		id := g.NodeOf(o, iv.Hi)
		if id == dn.Invalid || visited[id] {
			continue
		}
		visited[id] = true
		queue = append(queue, id)
	}
	delivers := make(map[trajectory.ObjectID]bool)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, m := range g.Members(id) {
			delivers[m] = true
		}
		if g.Nodes[id].Start <= iv.Lo {
			continue
		}
		for _, u := range g.In(id) {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
	}
	out := make([]trajectory.ObjectID, 0, len(delivers))
	for o := range delivers {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// TestReverseProfileMatchesOracle checks latest-departure ticks against the
// oracle on both engines, including the degenerate empty interval.
func TestReverseProfileMatchesOracle(t *testing.T) {
	f := newFixture(t, 36, 280, 8)
	ix, err := Build(f.g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMem(f.g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, iv := range []contact.Interval{
		{Lo: 0, Hi: 279},
		{Lo: 90, Hi: 200},
		{Lo: 200, Hi: 90}, // empty
	} {
		for _, seed := range []trajectory.ObjectID{2, 17, 35} {
			seeds := []trajectory.ObjectID{seed}
			want := f.oracle.ReverseProfileFrom(seeds, iv)
			got, _, err := ix.AppendProfile(ctx, nil, seedsOf(seed), iv, queries.Backward, nil, nil)
			if err != nil {
				t.Fatalf("disk reverse profile %d over %v: %v", seed, iv, err)
			}
			if len(got) != len(want) {
				t.Fatalf("disk reverse profile %d over %v: %d entries, oracle %d", seed, iv, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("disk reverse profile %d over %v: entry %d = %+v, oracle %+v", seed, iv, i, got[i], want[i])
				}
			}
			memGot, _, err := m.AppendProfile(ctx, nil, seedsOf(seed), iv, queries.Backward, nil)
			if err != nil {
				t.Fatalf("mem reverse profile %d over %v: %v", seed, iv, err)
			}
			if !reflect.DeepEqual(memGot, got) {
				t.Fatalf("mem reverse profile %d over %v diverges from disk", seed, iv)
			}
		}
	}
}
