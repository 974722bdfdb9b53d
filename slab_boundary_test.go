package streach_test

import (
	"context"
	"testing"

	"streach"
	"streach/internal/contact"
	"streach/internal/geo"
	"streach/internal/trajectory"
)

// slab_boundary_test.go pins the off-by-one behavior of contact splitting
// at time-slab edges: a contact active only at the LAST tick of slab k, or
// only at the FIRST tick of slab k+1, or spanning the edge, must propagate
// identically through every segmented backend and the unsegmented oracle.

// slabEdgeTicks is the slab width of these tests; contacts below are
// placed exactly on multiples and last ticks of it.
const slabEdgeTicks = 8

// slabEdgeContacts is a transfer chain whose every link sits on a slab
// edge: 0→1 at tick 7 (last tick of slab 0), 1→2 at tick 8 (first tick of
// slab 1), 2→3 over [15, 16] (spans the slab 1/2 edge), 3→4 at tick 23
// (last tick of the domain).
var slabEdgeContacts = []contact.Contact{
	{A: 0, B: 1, Validity: contact.Interval{Lo: 7, Hi: 7}},
	{A: 1, B: 2, Validity: contact.Interval{Lo: 8, Hi: 8}},
	{A: 2, B: 3, Validity: contact.Interval{Lo: 15, Hi: 16}},
	{A: 3, B: 4, Validity: contact.Interval{Lo: 23, Hi: 23}},
}

const slabEdgeObjects, slabEdgeNumTicks = 6, 24

// slabEdgeIntervals enumerates query intervals whose endpoints hit every
// slab edge and its neighbours.
func slabEdgeIntervals() []streach.Interval {
	marks := []streach.Tick{0, 6, 7, 8, 9, 14, 15, 16, 17, 22, 23}
	var out []streach.Interval
	for _, lo := range marks {
		for _, hi := range marks {
			if lo <= hi {
				out = append(out, streach.NewInterval(lo, hi))
			}
		}
	}
	return out
}

// TestSlabBoundaryContactSplitting compares every contact-sourced
// segmented backend against the unsegmented oracle on the edge chain, for
// all (src, dst) pairs and all edge-aligned intervals.
func TestSlabBoundaryContactSplitting(t *testing.T) {
	net := contact.FromContacts(slabEdgeObjects, slabEdgeNumTicks, slabEdgeContacts)
	src := streach.WrapContactNetwork(net)
	oracle, err := streach.Open("oracle", src, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"segmented:oracle", "segmented:reachgraph", "segmented:reachgraph-mem"} {
		e, err := streach.Open(name, src, streach.Options{SegmentTicks: slabEdgeTicks})
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		assertSlabEdgeConformance(t, ctx, e, oracle, name)
	}
}

// TestSlabBoundaryTrajectorySplitting is the trajectory-side twin: a
// hand-built dataset realizes the same contact chain through co-location
// (object b teleports next to object a for exactly the contact's validity
// ticks), exercising segmented:reachgrid's windowed trajectory extraction.
func TestSlabBoundaryTrajectorySplitting(t *testing.T) {
	d := &trajectory.Dataset{
		Name:        "slabedge",
		Env:         geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100}),
		TickSeconds: 1,
		ContactDist: 1.0,
		Trajs:       make([]trajectory.Trajectory, slabEdgeObjects),
	}
	home := func(o int) geo.Point { return geo.Point{X: float64(10 + 15*o), Y: 50} }
	for o := range d.Trajs {
		pos := make([]geo.Point, slabEdgeNumTicks)
		for tk := range pos {
			pos[tk] = home(o)
		}
		d.Trajs[o] = trajectory.Trajectory{Object: trajectory.ObjectID(o), Pos: pos}
	}
	// Realize each contact by moving B beside A for the validity window.
	for _, c := range slabEdgeContacts {
		for tk := c.Validity.Lo; tk <= c.Validity.Hi; tk++ {
			d.Trajs[c.B].Pos[tk] = home(int(c.A)).Add(geo.Point{X: 0.5})
		}
	}
	src := streach.WrapDataset(d)
	// The realized contact network must be exactly the synthetic chain.
	if got, want := src.Contacts().NumContacts(), len(slabEdgeContacts); got != want {
		t.Fatalf("dataset realizes %d contacts, want %d", got, want)
	}
	oracle, err := streach.Open("oracle", src, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"reachgrid", "segmented:reachgrid"} {
		e, err := streach.Open(name, src, streach.Options{SegmentTicks: slabEdgeTicks})
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		assertSlabEdgeConformance(t, ctx, e, oracle, name)
	}
}

func assertSlabEdgeConformance(t *testing.T, ctx context.Context, e, oracle streach.Engine, name string) {
	t.Helper()
	for src := streach.ObjectID(0); src < slabEdgeObjects; src++ {
		for dst := streach.ObjectID(0); dst < slabEdgeObjects; dst++ {
			for _, iv := range slabEdgeIntervals() {
				q := streach.Query{Src: src, Dst: dst, Interval: iv}
				want, err := oracle.Reachable(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Reachable(ctx, q)
				if err != nil {
					t.Fatalf("%s %v: %v", name, q, err)
				}
				if got.Reachable != want.Reachable {
					t.Fatalf("%s %v: got %v, oracle %v", name, q, got.Reachable, want.Reachable)
				}
				// Earliest arrival must also survive the slab split: the
				// planner re-bases slab-local ticks to global ones.
				wantA, err := oracle.Reachable(ctx, arrivalQuery(src, dst, iv))
				if err != nil {
					t.Fatal(err)
				}
				gotA, err := e.Reachable(ctx, arrivalQuery(src, dst, iv))
				if err != nil {
					t.Fatalf("%s arrival query %v: %v", name, q, err)
				}
				if gotA.Reachable != wantA.Reachable || gotA.Arrival != wantA.Arrival {
					t.Fatalf("%s %v: arrival (%v, %d), oracle (%v, %d)",
						name, q, gotA.Reachable, gotA.Arrival, wantA.Reachable, wantA.Arrival)
				}
			}
		}
	}
	// Reachable sets across the boundary chain over the full domain.
	full := streach.NewInterval(0, slabEdgeNumTicks-1)
	for src := streach.ObjectID(0); src < slabEdgeObjects; src++ {
		want, err := oracle.ReachableSet(ctx, src, full)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.ReachableSet(ctx, src, full)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Objects) != len(want.Objects) {
			t.Fatalf("%s set(%d): %v, oracle %v", name, src, got.Objects, want.Objects)
		}
		for i := range want.Objects {
			if got.Objects[i] != want.Objects[i] {
				t.Fatalf("%s set(%d): %v, oracle %v", name, src, got.Objects, want.Objects)
			}
		}
	}
}
