package reachgraph

import (
	"context"
	"reflect"
	"testing"

	"streach/internal/contact"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// TestReverseSetMatchesOracle validates the backward sweep — disk, memory
// and the dn-level reference walk — against the oracle's time-mirrored
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
		prof, _, err := ix.AppendProfile(ctx, nil, seedsOf(tc.seeds...), tc.iv, queries.Backward, nil)
		if err != nil {
			t.Fatalf("disk reverse %v over %v: %v", tc.seeds, tc.iv, err)
		}
		if got := objectsOf(prof); !reflect.DeepEqual(got, want) {
			t.Fatalf("disk reverse %v over %v = %v, oracle %v", tc.seeds, tc.iv, got, want)
		}
		prof, _, err = m.AppendProfile(ctx, nil, seedsOf(tc.seeds...), tc.iv, queries.Backward)
		if err != nil {
			t.Fatalf("mem reverse %v over %v: %v", tc.seeds, tc.iv, err)
		}
		if got := objectsOf(prof); !reflect.DeepEqual(got, want) {
			t.Fatalf("mem reverse %v over %v = %v, oracle %v", tc.seeds, tc.iv, got, want)
		}
		if ref := f.g.ReverseReach(tc.seeds, tc.iv); !reflect.DeepEqual(ref, want) {
			t.Fatalf("dn.ReverseReach %v over %v = %v, oracle %v", tc.seeds, tc.iv, ref, want)
		}
	}
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
			got, _, err := ix.AppendProfile(ctx, nil, seedsOf(seed), iv, queries.Backward, nil)
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
			memGot, _, err := m.AppendProfile(ctx, nil, seedsOf(seed), iv, queries.Backward)
			if err != nil {
				t.Fatalf("mem reverse profile %d over %v: %v", seed, iv, err)
			}
			if !reflect.DeepEqual(memGot, got) {
				t.Fatalf("mem reverse profile %d over %v diverges from disk", seed, iv)
			}
		}
	}
}
