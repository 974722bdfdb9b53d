package streach

import (
	"context"
	"math"
	"testing"

	"streach/internal/contact"
	"streach/internal/queries"
	"streach/internal/uncertain"
)

// filtered_internal_test.go pins the two places predicate filtering is
// easiest to get wrong — slab boundaries (a contact clipped by a segment
// edge must be judged by its full validity) and shard cuts (a cross-cut
// contact duplicated on both shards must be filtered identically on each)
// — plus the cross-validation of the engines' p^minHops probabilistic
// answers against the exact −log p Dijkstra of internal/uncertain.

func cnOf(numObjects, numTicks int, cs []contact.Contact) *ContactNetwork {
	return &ContactNetwork{net: contact.FromContacts(numObjects, numTicks, cs)}
}

// TestSlabBoundaryMinDuration: a 21-tick contact spans the slab boundary
// at tick 37, so each slab sees only a short residual ([30,36] and
// [37,50]). A min-duration bound of 15 must still pass it — Window stamps
// the original duration into the sidecar — even when the query interval
// stays inside one slab.
func TestSlabBoundaryMinDuration(t *testing.T) {
	cn := cnOf(3, 80, []contact.Contact{
		{A: 0, B: 1, Validity: Interval{Lo: 30, Hi: 50}},
		{A: 1, B: 2, Validity: Interval{Lo: 55, Hi: 56}},
	})
	ctx := context.Background()
	for _, name := range []string{"segmented:oracle", "segmented:reachgraph-mem", "oracle", "reachgraph-mem"} {
		e, err := Open(name, cn, Options{SegmentTicks: 37})
		if err != nil {
			t.Fatal(err)
		}
		// Query entirely inside the first slab: the local residual [30,36]
		// is 7 ticks, far below the bound, but the contact's true duration
		// is 21.
		r, err := e.Reachable(ctx, Query{Src: 0, Dst: 1, Interval: NewInterval(33, 36),
			Semantics: Semantics{MinDuration: 15}})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Reachable {
			t.Errorf("%s: slab-clipped 21-tick contact failed MinDuration 15", name)
		}
		// Across the boundary.
		r, err = e.Reachable(ctx, Query{Src: 0, Dst: 1, Interval: NewInterval(33, 45),
			Semantics: Semantics{MinDuration: 15}})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Reachable {
			t.Errorf("%s: cross-boundary query failed MinDuration 15", name)
		}
		// The genuinely short second leg must still be cut.
		r, err = e.Reachable(ctx, Query{Src: 0, Dst: 2, Interval: NewInterval(30, 60),
			Semantics: Semantics{MinDuration: 15}})
		if err != nil {
			t.Fatal(err)
		}
		if r.Reachable {
			t.Errorf("%s: 2-tick contact passed MinDuration 15", name)
		}
		// A bound the short leg meets restores the path.
		r, err = e.Reachable(ctx, Query{Src: 0, Dst: 2, Interval: NewInterval(30, 60),
			Semantics: Semantics{MinDuration: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Reachable {
			t.Errorf("%s: both contacts meet MinDuration 2 yet unreachable", name)
		}
	}
	// The segmented oracle filters inside its slabs, not via fallback.
	e, err := Open("segmented:oracle", cn, Options{SegmentTicks: 37})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Reachable(ctx, Query{Src: 0, Dst: 1, Interval: NewInterval(33, 45),
		Semantics: Semantics{MinDuration: 15}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Native {
		t.Error("segmented:oracle answered a min-duration query via fallback")
	}
}

// TestShardCutFiltered: object pairs split across a 2-way hash cut
// duplicate their cross-cut contacts onto both shards; a per-contact
// predicate must keep or drop both replicas in lockstep, so every filtered
// answer matches the unsharded oracle.
func TestShardCutFiltered(t *testing.T) {
	cn := cnOf(4, 70, []contact.Contact{
		{A: 0, B: 1, Validity: Interval{Lo: 5, Hi: 24}},  // 20 ticks, crosses the 0|1 cut
		{A: 1, B: 2, Validity: Interval{Lo: 30, Hi: 33}}, // 4 ticks
		{A: 2, B: 3, Validity: Interval{Lo: 40, Hi: 59}}, // 20 ticks
	})
	ctx := context.Background()
	sharded, err := Open("shard:2:oracle", cn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Open("oracle", cn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	iv := NewInterval(0, 69)
	for _, sem := range []Semantics{{}, {MinDuration: 10}, {MinDuration: 3}, {MinDuration: 30}} {
		for src := ObjectID(0); src < 4; src++ {
			for dst := ObjectID(0); dst < 4; dst++ {
				q := Query{Src: src, Dst: dst, Interval: iv, Semantics: sem}
				sr, err := sharded.Reachable(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := plain.Reachable(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if sr.Reachable != pr.Reachable {
					t.Fatalf("sem %+v %d→%d: sharded %v, oracle %v", sem, src, dst, sr.Reachable, pr.Reachable)
				}
			}
		}
	}
	// The duration bound of 10 admits only the two long contacts: 0→2 dies
	// at the short middle leg on whichever shard holds it.
	r, err := sharded.Reachable(ctx, Query{Src: 0, Dst: 2, Interval: iv, Semantics: Semantics{MinDuration: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Reachable {
		t.Error("short cross-leg passed the duration bound on a shard")
	}
	if !r.Native {
		t.Error("shard:2:oracle answered a hop-agnostic filtered query via fallback")
	}
}

// TestUncertainDijkstraCrossValidation: the engines' probabilistic answers
// (best-path probability p^minHops from the profile evaluation, native on
// oracle, through the oracle fallback on reachgraph) must agree
// query-by-query with the paper's −log p Dijkstra (internal/uncertain) over
// the same contacts — the two formulations of §7's maximum path
// probability.
func TestUncertainDijkstraCrossValidation(t *testing.T) {
	ds := GenerateRandomWaypoint(RWPOptions{NumObjects: 30, NumTicks: 120, Seed: 7})
	dijkstra, err := uncertain.NewEngine(uncertain.FromNetwork(ds.Contacts().net, func(contact.Contact) float64 { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	work := RandomQueries(WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
		Count: 12, MinLen: 20, MaxLen: 100, Seed: 3,
	})
	sems := []Semantics{
		{Prob: 0.7, ProbThreshold: 0.25},
		{Prob: 0.5},
		{Prob: 0.9, ProbThreshold: 0.5, MinDuration: 2},
		{Prob: 0.6, MaxHops: 3},
	}
	ctx := context.Background()
	for _, name := range []string{"oracle", "reachgraph"} {
		e, err := Open(name, ds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range work {
			for si, sem := range sems {
				pq := q
				pq.Semantics = sem
				res, err := e.Reachable(ctx, pq)
				if err != nil {
					t.Fatal(err)
				}
				// The uniform p overrides every contact's, the predicate
				// filters them, the τ-folded budget bounds the transfers.
				popts := uncertain.PathOpts{Prob: sem.Prob}
				if f := sem.Filter(); f.Active() {
					popts.Filter = func(uc uncertain.Contact) bool { return f.Match(uc.Deterministic()) }
				}
				if b := sem.EffectiveBudget(); b != queries.UnboundedHops {
					if b <= 0 {
						t.Fatalf("sem%d: budget %d, which PathOpts reads as unbounded", si, b)
					}
					popts.MaxHops = b
				}
				pr, err := dijkstra.BestProbPath(pq.Src, pq.Dst, pq.Interval, popts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Reachable != pr.OK {
					t.Fatalf("%s q%d sem%d %v: engine reachable=%v, Dijkstra OK=%v", name, qi, si, pq, res.Reachable, pr.OK)
				}
				if !pr.OK {
					continue
				}
				if math.Abs(res.Prob-pr.Prob) > 1e-9 {
					t.Fatalf("%s q%d sem%d: engine Prob %v, Dijkstra %v", name, qi, si, res.Prob, pr.Prob)
				}
				// Every p here is below 1, where minimal cost is minimal
				// transfers, so the hop counts coincide too.
				if res.Hops != pr.Hops {
					t.Fatalf("%s q%d sem%d: engine hops %d, Dijkstra %d", name, qi, si, res.Hops, pr.Hops)
				}
			}
		}
	}
}
