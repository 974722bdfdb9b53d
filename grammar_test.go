package streach_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"streach"
)

// grammar_test.go pins the backend name grammar — one parser behind Open,
// NewLiveEngine and LookupBackend — and the advertised registry.

// TestBackendsGolden pins Backends() to the advertised list, so "the full
// conformance matrix is unchanged" is a diff of this test, not a claim.
func TestBackendsGolden(t *testing.T) {
	want := []string{
		"bidir:oracle", "bidir:reachgraph", "bidir:reachgraph-mem",
		"oracle", "reachgraph", "reachgraph-mem", "reachgrid",
		"segmented:oracle", "segmented:reachgraph", "segmented:reachgraph-mem", "segmented:reachgrid",
		"shard:1:reachgraph", "shard:1:spatial:reachgraph",
		"shard:2:reachgraph", "shard:2:spatial:reachgraph",
		"shard:4:reachgraph", "shard:4:spatial:reachgraph",
	}
	got := streach.Backends()
	if !slices.Equal(got, want) {
		t.Fatalf("Backends() = %v\nwant %v", got, want)
	}
	if !slices.IsSorted(got) {
		t.Error("Backends() is not sorted")
	}
	for i, info := range streach.BackendInfos() {
		if info.Name != want[i] || info.Description == "" {
			t.Errorf("BackendInfos()[%d] = %+v, want name %q and a description", i, info, want[i])
		}
	}
}

// grammarQueries is the 20-query workload every accepted spelling must
// answer like the oracle.
func grammarQueries(ds *streach.Dataset) []streach.Query {
	return streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
		Count: 20, MinLen: 10, MaxLen: ds.NumTicks(), Seed: 61,
	})
}

func TestNameGrammar(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 30, NumTicks: 160, Seed: 17})
	oracle := ds.Contacts().Oracle()
	work := grammarQueries(ds)
	opts := streach.Options{SegmentTicks: 48}

	// Accepted by Open: spelling → canonical name and BackendInfo flags.
	accepted := []struct {
		name, canonical string
		disk, needsTraj bool
	}{
		{"reachgraph", "reachgraph", true, false},
		{" ReachGraph ", "reachgraph", true, false},
		{"Segmented:ReachGraph", "segmented:reachgraph", true, false},
		// Wrappers compose in either order, to any depth.
		{"bidir:segmented:reachgraph-mem", "bidir:segmented:reachgraph-mem", false, false},
		{"segmented:shard:2:reachgraph-mem", "segmented:shard:2:reachgraph-mem", false, false},
		{"shard:3:hash:bidir:oracle", "shard:3:bidir:oracle", false, false},
		{"shard:2:spatial:segmented:reachgraph-mem", "shard:2:spatial:segmented:reachgraph-mem", false, true},
		{"segmented:reachgrid", "segmented:reachgrid", true, true},
	}
	for _, tc := range accepted {
		info, ok := streach.LookupBackend(tc.name)
		if !ok || info.Name != tc.canonical || info.DiskResident != tc.disk || info.NeedsTrajectories != tc.needsTraj {
			t.Errorf("LookupBackend(%q) = %+v, %v; want %q disk=%v traj=%v",
				tc.name, info, ok, tc.canonical, tc.disk, tc.needsTraj)
		}
		e, err := streach.Open(tc.name, ds, opts)
		if err != nil {
			t.Errorf("Open(%q): %v", tc.name, err)
			continue
		}
		if e.Name() != tc.canonical {
			t.Errorf("Open(%q).Name() = %q, want %q", tc.name, e.Name(), tc.canonical)
		}
		if again, err := streach.Open(e.Name(), ds, opts); err != nil || again.Name() != e.Name() {
			t.Errorf("Open(%q) does not round-trip its own name: %v", e.Name(), err)
		}
		for _, q := range work {
			agree(t, e, q, oracle.Reachable(q))
		}
	}

	// Rejected by Open, each with its sentinel.
	rejected := []struct {
		name string
		src  streach.Source
		want error
	}{
		{"nosuch", ds, streach.ErrUnknownBackend},
		{"segmented:nosuch", ds, streach.ErrUnknownBackend},
		{"shard:2:segmented:nosuch", ds, streach.ErrUnknownBackend},
		{"segmented:", ds, streach.ErrUnknownBackend},
		{"shard:0:reachgraph", ds, streach.ErrUnknownBackend},
		{"shard:x:reachgraph", ds, streach.ErrUnknownBackend},
		{"shard:2:", ds, streach.ErrUnknownBackend},
		{"shard:2:spatial", ds, streach.ErrUnknownBackend},
		// A wrapper directly wrapping itself is not a name.
		{"shard:2:shard:2:reachgraph", ds, streach.ErrUnknownBackend},
		{"segmented:segmented:reachgraph", ds, streach.ErrUnknownBackend},
		{"bidir:bidir:oracle", ds, streach.ErrUnknownBackend},
		// A nesting the base's capability predicate refuses: ReachGrid has
		// no backward sweep.
		{"bidir:reachgrid", ds, streach.ErrUnknownBackend},
		// The §6 baselines are the lab's (internal/bench), not names:
		// leaves, former aliases and every nesting.
		{"spj", ds, streach.ErrUnknownBackend},
		{"grail", ds, streach.ErrUnknownBackend},
		{"grail-mem", ds, streach.ErrUnknownBackend},
		{"grail-disk", ds, streach.ErrUnknownBackend},
		{"reachgraph-bbfs", ds, streach.ErrUnknownBackend},
		{"reachgraph-ebfs", ds, streach.ErrUnknownBackend},
		{"reachgraph-edfs", ds, streach.ErrUnknownBackend},
		{"reachgraph-bmbfs", ds, streach.ErrUnknownBackend},
		{"segmented:reachgraph-ebfs", ds, streach.ErrUnknownBackend},
		{"segmented:reachgraph-bmbfs", ds, streach.ErrUnknownBackend},
		{"bidir:reachgraph-bmbfs", ds, streach.ErrUnknownBackend},
		{"shard:2:reachgraph-bmbfs", ds, streach.ErrUnknownBackend},
		{"segmented:spj", ds, streach.ErrUnknownBackend},
		{"shard:2:grail-mem", ds, streach.ErrUnknownBackend},
		// The uncertain: family is gone, alias, leaf and every nesting: its
		// queries go to the base itself (Semantics.Prob).
		{"uncertain", ds, streach.ErrUnknownBackend},
		{"uncertain:oracle", ds, streach.ErrUnknownBackend},
		{"uncertain:reachgraph-bmbfs", ds, streach.ErrUnknownBackend},
		{"uncertain:shard:2:reachgraph", ds, streach.ErrUnknownBackend},
		{"shard:2:uncertain:reachgraph-mem", ds, streach.ErrUnknownBackend},
		{"segmented:uncertain:oracle", ds, streach.ErrUnknownBackend},
		{"bidir:uncertain:oracle", ds, streach.ErrUnknownBackend},
		{"uncertain:segmented:reachgrid", ds, streach.ErrUnknownBackend},
		{"uncertain:uncertain:oracle", ds, streach.ErrUnknownBackend},
		// Trajectory needs propagate through the wrappers.
		{"reachgrid", ds.Contacts(), streach.ErrNeedsTrajectories},
		{"segmented:reachgrid", ds.Contacts(), streach.ErrNeedsTrajectories},
		{"shard:2:spatial:reachgraph", ds.Contacts(), streach.ErrNeedsTrajectories},
	}
	for _, tc := range rejected {
		if _, err := streach.Open(tc.name, tc.src, opts); !errors.Is(err, tc.want) {
			t.Errorf("Open(%q) = %v, want %v", tc.name, err, tc.want)
		}
	}
	for _, name := range []string{"uncertain", "uncertain:oracle", "shard:2:uncertain:reachgraph-mem", "live:shard:2:uncertain:oracle"} {
		if info, ok := streach.LookupBackend(name); ok {
			t.Errorf("LookupBackend(%q) = %+v, want no such name", name, info)
		}
	}
	// A LiveEngine's name resolves, but Open has no frozen form to build.
	if info, ok := streach.LookupBackend("live:reachgraph-mem"); !ok || info.Name != "live:reachgraph-mem" {
		t.Errorf("LookupBackend(live:reachgraph-mem) = %+v, %v", info, ok)
	}
	if _, err := streach.Open("live:reachgraph-mem", ds, opts); err == nil || !strings.Contains(err.Error(), "NewLiveEngine") {
		t.Errorf("Open(live:reachgraph-mem) = %v, want a pointer at NewLiveEngine", err)
	}

	// Accepted by NewLiveEngine: spelling → Name(), which must open its twin.
	live := []struct{ name, canonical string }{
		{"reachgraph-mem", "live:reachgraph-mem"},
		{"live:reachgraph-mem", "live:reachgraph-mem"},
		{"Live:ReachGraph", "live:reachgraph"},
		{"bidir:oracle", "live:bidir:oracle"},
		{"segmented:reachgraph", "live:segmented:reachgraph"},
	}
	for _, tc := range live {
		le, err := streach.NewLiveEngine(tc.name, ds.NumObjects(), ds.Env(), ds.ContactDist(), opts)
		if err != nil {
			t.Errorf("NewLiveEngine(%q): %v", tc.name, err)
			continue
		}
		if le.Name() != tc.canonical {
			t.Errorf("NewLiveEngine(%q).Name() = %q, want %q", tc.name, le.Name(), tc.canonical)
		}
		if twin, err := streach.NewLiveEngine(le.Name(), ds.NumObjects(), ds.Env(), ds.ContactDist(), opts); err != nil || twin.Name() != le.Name() {
			t.Errorf("NewLiveEngine(%q) does not round-trip its own name: %v", le.Name(), err)
		}
		feedLive(t, le, ds, ds.NumTicks())
		for _, q := range work {
			agree(t, le, q, oracle.Reachable(q))
		}
	}
	for _, tc := range []struct {
		name string
		want error
	}{
		{"nosuch", streach.ErrUnknownBackend},
		{"live:live:oracle", streach.ErrUnknownBackend},
		{"reachgrid", streach.ErrNotLiveCapable},
		{"shard:1:reachgraph-mem", streach.ErrNotLiveCapable},
		{"live:shard:2:bidir:reachgraph-mem", streach.ErrNotLiveCapable},
		{"shard:2:hash:oracle", streach.ErrNotLiveCapable},
		{"shard:2:reachgraph", streach.ErrNotLiveCapable},
		{"live:shard:2:oracle", streach.ErrNotLiveCapable},
		{"shard:2:spatial:reachgraph", streach.ErrNotLiveCapable},
		{"bidir:reachgrid", streach.ErrNotLiveCapable},
		{"grail", streach.ErrUnknownBackend},
		{"uncertain", streach.ErrUnknownBackend},
		{"shard:2:hash:uncertain:oracle", streach.ErrUnknownBackend},
		{"live:shard:2:uncertain:oracle", streach.ErrUnknownBackend},
		{"bidir:uncertain:oracle", streach.ErrUnknownBackend},
	} {
		if _, err := streach.NewLiveEngine(tc.name, ds.NumObjects(), ds.Env(), ds.ContactDist(), opts); !errors.Is(err, tc.want) {
			t.Errorf("NewLiveEngine(%q) = %v, want %v", tc.name, err, tc.want)
		}
	}
}
