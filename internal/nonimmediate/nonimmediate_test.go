package nonimmediate

import (
	"testing"

	"streach/internal/contact"
	"streach/internal/geo"
	"streach/internal/queries"
	"streach/internal/testgen"
	"streach/internal/trajectory"
)

// TestLifetimeZeroMatchesImmediateOracle pins the degenerate case: with
// lifetime 0, non-immediate reachability equals the paper's ordinary
// semantics.
func TestLifetimeZeroMatchesImmediateOracle(t *testing.T) {
	d := testgen.Spec{Objects: 40, Ticks: 200, Seed: 71}.Dataset()
	oracle := queries.NewOracle(contact.Extract(d))
	cs := Extract(d, 0)
	e, err := NewEngine(d.NumObjects(), d.NumTicks(), cs)
	if err != nil {
		t.Fatal(err)
	}
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(), NumTicks: d.NumTicks(),
		Count: 100, MinLen: 10, MaxLen: 150, Seed: 73,
	})
	for _, q := range work {
		want := oracle.Reachable(q)
		got, err := e.Reachable(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: nonimmediate(0) %v, oracle %v", q, got, want)
		}
	}
}

// TestProjectNetworkLifetimeZeroRoundTrip pins the projection round-trip:
// folding the lifetime-0 directed contacts into an undirected network must
// reproduce the deterministic oracle of contact.Extract exactly — same
// contact records, same answers.
func TestProjectNetworkLifetimeZeroRoundTrip(t *testing.T) {
	d := testgen.Spec{Objects: 35, Ticks: 160, Seed: 89}.Dataset()
	direct := contact.Extract(d)
	projected := ProjectNetwork(d.NumObjects(), d.NumTicks(), Extract(d, 0))
	if got, want := len(projected.Contacts), len(direct.Contacts); got != want {
		t.Fatalf("projected %d contacts, direct extraction %d", got, want)
	}
	for i, dc := range direct.Contacts {
		pc := projected.Contacts[i]
		// The projection carries no distance sidecar (Weight 0 = unknown),
		// so compare the topology and validity only.
		if pc.A != dc.A || pc.B != dc.B || pc.Validity != dc.Validity {
			t.Fatalf("contact %d differs: projected %+v, direct %+v", i, pc, dc)
		}
	}
	want := queries.NewOracle(direct)
	got := queries.NewOracle(projected)
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(), NumTicks: d.NumTicks(),
		Count: 80, MinLen: 10, MaxLen: 120, Seed: 97,
	})
	for _, q := range work {
		if got.Reachable(q) != want.Reachable(q) {
			t.Fatalf("%v: projected oracle disagrees with deterministic oracle", q)
		}
	}
}

// TestProjectNetworkOverApproximates: for positive lifetimes the undirected
// projection may only add reachability over the exact directed engine,
// never remove it.
func TestProjectNetworkOverApproximates(t *testing.T) {
	d := testgen.Spec{Objects: 25, Ticks: 100, Seed: 101}.Dataset()
	cs := Extract(d, 4)
	exact, err := NewEngine(d.NumObjects(), d.NumTicks(), cs)
	if err != nil {
		t.Fatal(err)
	}
	proj := queries.NewOracle(ProjectNetwork(d.NumObjects(), d.NumTicks(), cs))
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(), NumTicks: d.NumTicks(),
		Count: 60, MinLen: 10, MaxLen: 80, Seed: 103,
	})
	for _, q := range work {
		want, err := exact.Reachable(q)
		if err != nil {
			t.Fatal(err)
		}
		if want && !proj.Reachable(q) {
			t.Fatalf("%v: directed engine reaches but projection does not", q)
		}
	}
}

// TestLifetimeMonotone verifies that a longer item lifetime never shrinks
// the reachable set.
func TestLifetimeMonotone(t *testing.T) {
	d := testgen.Spec{Objects: 30, Ticks: 120, Seed: 79}.Dataset()
	iv := contact.Interval{Lo: 0, Hi: 119}
	var prev map[trajectory.ObjectID]bool
	for _, lt := range []int{0, 3, 10} {
		e, err := NewEngine(d.NumObjects(), d.NumTicks(), Extract(d, lt))
		if err != nil {
			t.Fatal(err)
		}
		set, err := e.ReachableSet(2, iv)
		if err != nil {
			t.Fatal(err)
		}
		cur := make(map[trajectory.ObjectID]bool, len(set))
		for _, o := range set {
			cur[o] = true
		}
		for o := range prev {
			if !cur[o] {
				t.Fatalf("lifetime %d lost object %d reachable at shorter lifetime", lt, o)
			}
		}
		prev = cur
	}
}

// lineup turns x coordinates into points on the x-axis, one per tick.
func lineup(xs []float64) []geo.Point {
	pts := make([]geo.Point, len(xs))
	for i, x := range xs {
		pts[i] = geo.Point{X: x}
	}
	return pts
}

// TestBusScenario reconstructs §7's motivating example: u deposits the item
// at a location, leaves, and v arrives within the lifetime.
func TestBusScenario(t *testing.T) {
	// Object 0 sits at the "bus" (x=0) until tick 2, then leaves; object 1
	// arrives there at tick 5. They are never within dT simultaneously.
	d := &trajectory.Dataset{
		Name:        "bus",
		Env:         geo.NewRect(geo.Point{}, geo.Point{X: 1000, Y: 1000}),
		TickSeconds: 1,
		ContactDist: 10,
	}
	pos0 := []float64{0, 0, 0, 500, 500, 500, 500, 500, 500, 500}
	pos1 := []float64{900, 900, 900, 900, 900, 0, 0, 900, 900, 900}
	d.Trajs = []trajectory.Trajectory{
		{Object: 0, Pos: lineup(pos0)},
		{Object: 1, Pos: lineup(pos1)},
	}

	// Immediate contact never happens: at tick 5 object 0 is at 500.
	imm, err := NewEngine(2, 10, Extract(d, 0))
	if err != nil {
		t.Fatal(err)
	}
	q := queries.Query{Src: 0, Dst: 1, Interval: contact.Interval{Lo: 0, Hi: 9}}
	if got, _ := imm.Reachable(q); got {
		t.Fatal("immediate semantics: want unreachable")
	}
	// With lifetime ≥ 3, the deposit at tick 2 (position 0) survives until
	// object 1 arrives at tick 5.
	non, err := NewEngine(2, 10, Extract(d, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := non.Reachable(q); !got {
		t.Fatal("lifetime 3: want reachable")
	}
	// Lifetime 2 is one tick too short.
	short, err := NewEngine(2, 10, Extract(d, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := short.Reachable(q); got {
		t.Fatal("lifetime 2: want unreachable")
	}
	// Directionality: object 1's deposit at tick 5 (position 0) cannot
	// reach object 0, which never returns there.
	back := queries.Query{Src: 1, Dst: 0, Interval: contact.Interval{Lo: 0, Hi: 9}}
	if got, _ := non.Reachable(back); got {
		t.Fatal("reverse direction: want unreachable")
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(0, 10, nil); err == nil {
		t.Error("zero objects: want error")
	}
	if _, err := NewEngine(2, 10, []Contact{{From: 5, To: 0, Emit: 0, Receive: 1}}); err == nil {
		t.Error("bad object: want error")
	}
	if _, err := NewEngine(2, 10, []Contact{{From: 0, To: 1, Emit: 5, Receive: 1}}); err == nil {
		t.Error("emit after receive: want error")
	}
	e, err := NewEngine(2, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.InfectionTimes(-1, contact.Interval{Lo: 0, Hi: 5}); err == nil {
		t.Error("bad source: want error")
	}
	ok, err := e.Reachable(queries.Query{Src: 0, Dst: 0, Interval: contact.Interval{Lo: 0, Hi: 3}})
	if err != nil || !ok {
		t.Errorf("self query: got (%v, %v)", ok, err)
	}
}

func TestInfectionTimesOrdered(t *testing.T) {
	d := testgen.Spec{Objects: 25, Ticks: 100, Seed: 83}.Dataset()
	e, err := NewEngine(d.NumObjects(), d.NumTicks(), Extract(d, 2))
	if err != nil {
		t.Fatal(err)
	}
	iv := contact.Interval{Lo: 5, Hi: 95}
	inf, err := e.InfectionTimes(0, iv)
	if err != nil {
		t.Fatal(err)
	}
	if inf[0] != iv.Lo {
		t.Fatalf("source infection time %d, want %d", inf[0], iv.Lo)
	}
	infected := 0
	for o, tt := range inf {
		if tt == never {
			continue
		}
		if tt < iv.Lo || tt > iv.Hi {
			t.Fatalf("object %d infected at %d outside %v", o, tt, iv)
		}
		infected++
	}
	if infected < 2 {
		t.Fatalf("only %d objects infected; dataset too sparse for the test", infected)
	}
}
