package queries_test

import (
	"math/rand"
	"testing"

	"streach/internal/contact"
	"streach/internal/queries"
	"streach/internal/testgen"
	"streach/internal/trajectory"
)

func figure1Network() *contact.Network {
	return contact.FromContacts(4, 4, []contact.Contact{
		{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 0}},
		{A: 1, B: 3, Validity: contact.Interval{Lo: 1, Hi: 1}},
		{A: 2, B: 3, Validity: contact.Interval{Lo: 1, Hi: 2}},
		{A: 0, B: 1, Validity: contact.Interval{Lo: 2, Hi: 3}},
	})
}

func TestOracleFigure1(t *testing.T) {
	o := queries.NewOracle(figure1Network())
	// §1: "The object o4 is reachable from o1 during time interval [0, 1]"
	// (0-based: 3 from 0); "o1 is not reachable from o4 during [0,1]".
	cases := []struct {
		q    queries.Query
		want bool
	}{
		{queries.Query{Src: 0, Dst: 3, Interval: contact.Interval{Lo: 0, Hi: 1}}, true},
		{queries.Query{Src: 3, Dst: 0, Interval: contact.Interval{Lo: 0, Hi: 1}}, false},
		// §4 example: for q: o1 ⤳[2,3] o2, contact c4 suffices.
		{queries.Query{Src: 0, Dst: 1, Interval: contact.Interval{Lo: 2, Hi: 3}}, true},
		// o3 never reaches o1 within [2,3] (no connecting contacts).
		{queries.Query{Src: 2, Dst: 0, Interval: contact.Interval{Lo: 2, Hi: 3}}, false},
		// Within a single instant, contact chains propagate instantly.
		{queries.Query{Src: 1, Dst: 2, Interval: contact.Interval{Lo: 1, Hi: 1}}, true},
		// Time-respecting order matters: o4→o1 succeeds over the full
		// interval (o4-o2 at 1, o2-o1 at 2).
		{queries.Query{Src: 3, Dst: 0, Interval: contact.Interval{Lo: 0, Hi: 3}}, true},
	}
	for _, tc := range cases {
		if got := o.Reachable(tc.q); got != tc.want {
			t.Errorf("%v = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestOracleSnapshotSymmetryAndTransitivity(t *testing.T) {
	// Properties 5.1 and 5.2 on random networks.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		net := testgen.New(testgen.Random(int64(2+trial), 2+4*trial)).Network(10, 24, 25)
		n, ticks := net.NumObjects, net.NumTicks
		o := queries.NewOracle(net)
		// Snapshot symmetry: single-instant reachability is symmetric.
		for tk := 0; tk < ticks; tk++ {
			iv := contact.Interval{Lo: trajectory.Tick(tk), Hi: trajectory.Tick(tk)}
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					ab := o.Reachable(queries.Query{Src: trajectory.ObjectID(a), Dst: trajectory.ObjectID(b), Interval: iv})
					ba := o.Reachable(queries.Query{Src: trajectory.ObjectID(b), Dst: trajectory.ObjectID(a), Interval: iv})
					if ab != ba {
						t.Fatalf("snapshot symmetry violated at t=%d for %d,%d", tk, a, b)
					}
				}
			}
		}
		// Transitivity: a⤳b during [t1,t2] and b⤳c during [t2,t3] ⇒ a⤳c
		// during [t1,t3].
		for i := 0; i < 40; i++ {
			a := trajectory.ObjectID(rng.Intn(n))
			b := trajectory.ObjectID(rng.Intn(n))
			c := trajectory.ObjectID(rng.Intn(n))
			t1 := rng.Intn(ticks)
			t2 := t1 + rng.Intn(ticks-t1)
			t3 := t2 + rng.Intn(ticks-t2)
			ab := o.Reachable(queries.Query{Src: a, Dst: b, Interval: contact.Interval{Lo: trajectory.Tick(t1), Hi: trajectory.Tick(t2)}})
			bc := o.Reachable(queries.Query{Src: b, Dst: c, Interval: contact.Interval{Lo: trajectory.Tick(t2), Hi: trajectory.Tick(t3)}})
			if ab && bc {
				if !o.Reachable(queries.Query{Src: a, Dst: c, Interval: contact.Interval{Lo: trajectory.Tick(t1), Hi: trajectory.Tick(t3)}}) {
					t.Fatalf("transitivity violated: %d⤳%d[%d,%d], %d⤳%d[%d,%d]", a, b, t1, t2, b, c, t2, t3)
				}
			}
		}
	}
}

func TestReachableSetMonotone(t *testing.T) {
	net := testgen.Spec{Objects: 60, Ticks: 120, Seed: 4}.Network()
	o := queries.NewOracle(net)
	src := trajectory.ObjectID(0)
	prev := 0
	for _, hi := range []trajectory.Tick{10, 40, 80, 119} {
		set := o.ReachableSet(src, contact.Interval{Lo: 0, Hi: hi})
		if len(set) < prev {
			t.Fatalf("reachable set shrank: %d → %d at hi=%d", prev, len(set), hi)
		}
		prev = len(set)
		if set[0] != src {
			t.Fatal("source must be first in its own reachable set")
		}
	}
}

func TestReachableSetConsistentWithReachable(t *testing.T) {
	net := testgen.Spec{Objects: 50, Ticks: 100, Seed: 5}.Network()
	o := queries.NewOracle(net)
	iv := contact.Interval{Lo: 10, Hi: 90}
	src := trajectory.ObjectID(7)
	set := make(map[trajectory.ObjectID]bool)
	for _, obj := range o.ReachableSet(src, iv) {
		set[obj] = true
	}
	for dst := 0; dst < net.NumObjects; dst++ {
		q := queries.Query{Src: src, Dst: trajectory.ObjectID(dst), Interval: iv}
		want := set[trajectory.ObjectID(dst)] || trajectory.ObjectID(dst) == src
		if got := o.Reachable(q); got != want && dst != int(src) {
			t.Fatalf("Reachable(%v) = %v, ReachableSet says %v", q, got, want)
		}
	}
}

func TestReverseReachableSetDuality(t *testing.T) {
	// x delivers to d over iv exactly when d is forward-reachable from x:
	// the reverse sweep is the forward sweep on the time-mirrored network.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		net := testgen.New(testgen.Random(int64(7+trial), 2+8*trial)).Network(11, 25, 30)
		n, ticks := net.NumObjects, net.NumTicks
		o := queries.NewOracle(net)
		for q := 0; q < 8; q++ {
			d := trajectory.ObjectID(rng.Intn(n))
			lo := rng.Intn(ticks)
			iv := contact.Interval{Lo: trajectory.Tick(lo), Hi: trajectory.Tick(lo + rng.Intn(ticks-lo))}
			rev := make(map[trajectory.ObjectID]bool)
			for _, e := range o.ReverseProfileFrom([]trajectory.ObjectID{d}, iv) {
				rev[e.Obj] = true
			}
			for x := 0; x < n; x++ {
				fwd := o.Reachable(queries.Query{Src: trajectory.ObjectID(x), Dst: d, Interval: iv})
				if fwd != rev[trajectory.ObjectID(x)] {
					t.Fatalf("trial %d: duality violated for %d⤳%d over %v: forward %v, reverse %v",
						trial, x, d, iv, fwd, rev[trajectory.ObjectID(x)])
				}
			}
		}
	}
}

func TestReverseProfileDepartures(t *testing.T) {
	// The departure tick of each deliverer must be the last tick from which
	// a delivery still succeeds: reachable over [dep, hi] but not [dep+1, hi].
	net := testgen.Spec{Objects: 30, Ticks: 80, Seed: 9}.Network()
	o := queries.NewOracle(net)
	dst := trajectory.ObjectID(3)
	iv := contact.Interval{Lo: 5, Hi: 70}
	for _, e := range o.ReverseProfileFrom([]trajectory.ObjectID{dst}, iv) {
		if e.Arrival < iv.Lo || e.Arrival > iv.Hi {
			t.Fatalf("departure %d outside %v", e.Arrival, iv)
		}
		if !o.Reachable(queries.Query{Src: e.Obj, Dst: dst, Interval: contact.Interval{Lo: e.Arrival, Hi: iv.Hi}}) {
			t.Fatalf("object %d cannot deliver from its own departure tick %d", e.Obj, e.Arrival)
		}
		if e.Arrival < iv.Hi && o.Reachable(queries.Query{Src: e.Obj, Dst: dst, Interval: contact.Interval{Lo: e.Arrival + 1, Hi: iv.Hi}}) {
			t.Fatalf("object %d delivers after its supposed latest departure %d", e.Obj, e.Arrival)
		}
	}
	// Seeds always deliver to themselves, departing at iv.Hi.
	prof := o.ReverseProfileFrom([]trajectory.ObjectID{dst}, iv)
	found := false
	for _, e := range prof {
		if e.Obj == dst {
			found = true
			if e.Arrival != iv.Hi {
				t.Fatalf("seed departure = %d, want %d", e.Arrival, iv.Hi)
			}
		}
	}
	if !found {
		t.Fatal("seed missing from its own reverse profile")
	}
}

// earliestReach is dst's Arrival in the profile of src over iv: the first
// tick it holds the item, or false.
func earliestReach(o *queries.Oracle, src, dst trajectory.ObjectID, iv contact.Interval) (trajectory.Tick, bool) {
	prof, _ := o.ProfileFrom([]queries.SeedState{{Obj: src}}, iv, queries.UnboundedHops, trajectory.ObjectID(-1))
	for _, e := range prof {
		if e.Obj == dst {
			return e.Arrival, true
		}
	}
	return -1, false
}

func TestEarliestReach(t *testing.T) {
	o := queries.NewOracle(figure1Network())
	// o1 → o4 over [0,3]: earliest delivery is tick 1 (o2 hands over at 1).
	tk, ok := earliestReach(o, 0, 3, contact.Interval{Lo: 0, Hi: 3})
	if !ok || tk != 1 {
		t.Fatalf("earliest reach = %d, %v; want 1, true", tk, ok)
	}
	// Self-query: reached at interval start.
	tk, ok = earliestReach(o, 2, 2, contact.Interval{Lo: 1, Hi: 3})
	if !ok || tk != 1 {
		t.Fatalf("self earliest reach = %d, %v", tk, ok)
	}
	if _, ok := earliestReach(o, 2, 0, contact.Interval{Lo: 2, Hi: 3}); ok {
		t.Fatal("unreachable query reported a reach time")
	}
}

func TestOracleDegenerateInputs(t *testing.T) {
	o := queries.NewOracle(figure1Network())
	if o.Reachable(queries.Query{Src: 99, Dst: 0, Interval: contact.Interval{Lo: 0, Hi: 3}}) {
		t.Error("out-of-range source reachable")
	}
	if o.Reachable(queries.Query{Src: 0, Dst: 1, Interval: contact.Interval{Lo: 3, Hi: 1}}) {
		t.Error("empty interval reachable")
	}
	if set := o.ReachableSet(0, contact.Interval{Lo: 2, Hi: 1}); set != nil {
		t.Error("empty interval produced a reachable set")
	}
}

func TestRandomWorkloadRespectsConfig(t *testing.T) {
	w := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: 50, NumTicks: 1000, Count: 200, MinLen: 150, MaxLen: 350, Seed: 1,
	})
	if len(w) != 200 {
		t.Fatalf("len = %d", len(w))
	}
	for _, q := range w {
		if q.Src == q.Dst {
			t.Fatal("src == dst")
		}
		l := q.Interval.Len()
		if l < 150 || l > 350 {
			t.Fatalf("interval length %d outside [150, 350]", l)
		}
		if q.Interval.Lo < 0 || int(q.Interval.Hi) >= 1000 {
			t.Fatalf("interval %v outside domain", q.Interval)
		}
	}
}

func TestRandomWorkloadClampsToDomain(t *testing.T) {
	w := queries.RandomWorkload(queries.WorkloadConfig{NumObjects: 5, NumTicks: 60, Count: 50, Seed: 2})
	for _, q := range w {
		if q.Interval.Len() > 60 {
			t.Fatalf("interval %v longer than domain", q.Interval)
		}
	}
	// Deterministic for a fixed seed.
	w2 := queries.RandomWorkload(queries.WorkloadConfig{NumObjects: 5, NumTicks: 60, Count: 50, Seed: 2})
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("workload not deterministic")
		}
	}
}
