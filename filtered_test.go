package streach_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"streach"
)

// filtered_test.go validates the §7 extensions across the whole registry:
// predicate-filtered propagation (min-duration, max-weight, compiled
// filters) and probabilistic reachability (best-path probability under a
// threshold, Monte-Carlo estimation) must agree with a brute-force
// reference on every backend, natively or through the explicit fallback.

// filterSem mirrors queries.Filter.Match for the reference: duration and
// weight bounds conjoin, an unweighted contact always passes the weight
// bound.
func filterSem(c streach.Contact, sem streach.Semantics) bool {
	if sem.MinDuration > 0 && int(c.Duration()) < sem.MinDuration {
		return false
	}
	if sem.MaxWeight > 0 && c.Weight != 0 && float64(c.Weight) > sem.MaxWeight {
		return false
	}
	return true
}

// relaxProjected computes the reference profile over an explicit contact
// list (a predicate projection of some network) by per-tick relaxation.
func relaxProjected(numObjects, numTicks int, kept []streach.Contact, src streach.ObjectID, iv streach.Interval, budget int) refProfile {
	p := refProfile{hops: make([]int, numObjects), arrival: make([]streach.Tick, numObjects)}
	for i := range p.hops {
		p.hops[i] = -1
		p.arrival[i] = -1
	}
	lo, hi := iv.Lo, iv.Hi
	if lo < 0 {
		lo = 0
	}
	if hi > streach.Tick(numTicks-1) {
		hi = streach.Tick(numTicks - 1)
	}
	if hi < lo {
		return p
	}
	if budget <= 0 {
		budget = int(^uint(0) >> 2)
	}
	p.hops[src], p.arrival[src] = 0, lo
	for t := lo; t <= hi; t++ {
		var pairs [][2]streach.ObjectID
		for _, c := range kept {
			if c.Validity.Contains(t) {
				pairs = append(pairs, [2]streach.ObjectID{c.A, c.B})
			}
		}
		for changed := true; changed; {
			changed = false
			relax := func(a, b streach.ObjectID) {
				if p.hops[a] < 0 || p.hops[a] >= budget {
					return
				}
				if p.hops[b] >= 0 && p.hops[b] <= p.hops[a]+1 {
					return
				}
				if p.hops[b] < 0 {
					p.arrival[b] = t
				}
				p.hops[b] = p.hops[a] + 1
				changed = true
			}
			for _, pr := range pairs {
				relax(pr[0], pr[1])
				relax(pr[1], pr[0])
			}
		}
	}
	return p
}

// referenceFiltered computes the reference profile over the predicate
// projection of the network: drop failing contacts, relax the rest.
func referenceFiltered(cn *streach.ContactNetwork, src streach.ObjectID, iv streach.Interval, budget int, sem streach.Semantics) refProfile {
	var kept []streach.Contact
	for _, c := range cn.All() {
		if filterSem(c, sem) {
			kept = append(kept, c)
		}
	}
	return relaxProjected(cn.NumObjects(), cn.NumTicks(), kept, src, iv, budget)
}

// TestFilteredConformance sweeps every backend with min-duration and
// max-weight predicates: answers must match the reference projection
// whether the backend filters natively or through the oracle fallback.
func TestFilteredConformance(t *testing.T) {
	ds := semanticsDataset(t)
	cn := ds.Contacts()
	names, opts := semanticsBackends()
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
		Count: 8, MinLen: 30, MaxLen: 120, Seed: 17,
	})
	// A weight bound at the median extracted weight cuts roughly half the
	// contacts without emptying the network.
	var wsum float64
	for _, c := range cn.All() {
		wsum += float64(c.Weight)
	}
	midWeight := wsum / float64(cn.NumContacts())
	sems := []streach.Semantics{
		{MinDuration: 2},
		{MinDuration: 5},
		{MaxWeight: midWeight},
		{MinDuration: 3, MaxWeight: midWeight},
		{MinDuration: 2, MaxHops: 2},
	}
	ctx := context.Background()
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			e, err := streach.Open(name, ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range work {
				for si, sem := range sems {
					fq := q
					fq.Semantics = sem
					r, err := e.Reachable(ctx, fq)
					if err != nil {
						t.Fatalf("q%d sem%d: %v", qi, si, err)
					}
					ref := referenceFiltered(cn, q.Src, q.Interval, sem.MaxHops, sem)
					want := ref.hops[q.Dst] >= 0 || q.Src == q.Dst
					if r.Reachable != want {
						t.Fatalf("q%d %v sem %+v: got %v, reference %v (native=%v)",
							qi, q, sem, r.Reachable, want, r.Native)
					}
					if r.Reachable && q.Src != q.Dst && r.Arrival != ref.arrival[q.Dst] {
						t.Fatalf("q%d %v sem %+v: arrival %d, reference %d",
							qi, q, sem, r.Arrival, ref.arrival[q.Dst])
					}
				}
			}
		})
	}
}

// TestProbabilisticConformance sweeps every backend with uniform-p
// probabilistic queries: Reachable must reflect the τ-folded transfer
// budget and Prob must equal the best-path probability p^minHops.
func TestProbabilisticConformance(t *testing.T) {
	ds := semanticsDataset(t)
	cn := ds.Contacts()
	names, opts := semanticsBackends()
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
		Count: 6, MinLen: 30, MaxLen: 120, Seed: 23,
	})
	sems := []streach.Semantics{
		{Prob: 0.7},
		{Prob: 0.7, ProbThreshold: 0.3},
		{Prob: 0.5, ProbThreshold: 0.2},
		{Prob: 0.5, ProbThreshold: 0.2, MinDuration: 2},
		{Prob: 1, ProbThreshold: 0.9},
		{Prob: 0.6, MaxHops: 3},
	}
	ctx := context.Background()
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			e, err := streach.Open(name, ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range work {
				for si, sem := range sems {
					pq := q
					pq.Semantics = sem
					r, err := e.Reachable(ctx, pq)
					if err != nil {
						t.Fatalf("q%d sem%d: %v", qi, si, err)
					}
					budget := int(sem.EffectiveBudget())
					ref := referenceFiltered(cn, q.Src, q.Interval, budget, sem)
					wantHops := ref.hops[q.Dst]
					if q.Src == q.Dst {
						wantHops = 0
					}
					if r.Reachable != (wantHops >= 0) {
						t.Fatalf("q%d %v sem %+v: got %v, reference hops %d (native=%v)",
							qi, q, sem, r.Reachable, wantHops, r.Native)
					}
					if !r.Reachable {
						if r.Prob != 0 {
							t.Fatalf("q%d sem%d: unreachable with Prob %v", qi, si, r.Prob)
						}
						continue
					}
					// The profile reports the minimal transfer count under
					// the folded budget; the best path probability follows.
					if r.Hops < 0 {
						t.Fatalf("q%d sem%d: probabilistic result without hops", qi, si)
					}
					want := math.Pow(sem.Prob, float64(r.Hops))
					if diff := math.Abs(r.Prob - want); diff > 1e-12 {
						t.Fatalf("q%d sem%d: Prob %v, want %v (hops %d)", qi, si, r.Prob, want, r.Hops)
					}
					if sem.ProbThreshold > 0 && r.Prob < sem.ProbThreshold-1e-12 {
						t.Fatalf("q%d sem%d: Prob %v below threshold %v yet reachable",
							qi, si, r.Prob, sem.ProbThreshold)
					}
				}
			}
		})
	}
}

// TestRegisteredFilterConformance runs a compiled per-contact predicate
// (registered via RegisterContactFilter) through a native backend and a
// fallback backend and checks both against the reference projection.
func TestRegisteredFilterConformance(t *testing.T) {
	streach.RegisterContactFilter("test:low-ids", func(c streach.Contact) bool {
		return c.A < 20 && c.B < 20
	})
	ds := semanticsDataset(t)
	cn := ds.Contacts()
	ctx := context.Background()
	iv := streach.NewInterval(10, 150)
	for _, name := range []string{"oracle", "uncertain:reachgraph", "reachgraph-mem", "segmented:oracle", "shard:2:oracle"} {
		e, err := streach.Open(name, ds, streach.Options{SegmentTicks: 37})
		if err != nil {
			t.Fatal(err)
		}
		var kept []streach.Contact
		for _, c := range cn.All() {
			if c.A < 20 && c.B < 20 {
				kept = append(kept, c)
			}
		}
		for src := streach.ObjectID(0); src < 4; src++ {
			ref := relaxProjected(cn.NumObjects(), cn.NumTicks(), kept, src, iv, 0)
			for dst := streach.ObjectID(0); dst < streach.ObjectID(ds.NumObjects()); dst += 5 {
				r, err := e.Reachable(ctx, streach.Query{Src: src, Dst: dst, Interval: iv,
					Semantics: streach.Semantics{FilterID: "test:low-ids"}})
				if err != nil {
					t.Fatal(err)
				}
				want := ref.hops[dst] >= 0 || src == dst
				if r.Reachable != want {
					t.Fatalf("%s src=%d dst=%d: got %v, reference %v", name, src, dst, r.Reachable, want)
				}
			}
		}
	}
	// An unregistered ID is a validation error, not an empty answer.
	e, err := streach.Open("oracle", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reachable(ctx, streach.Query{Src: 0, Dst: 1, Interval: iv,
		Semantics: streach.Semantics{FilterID: "test:never-registered"}}); err == nil ||
		!strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("unregistered filter ID: err=%v, want unregistered-filter error", err)
	}
}

// TestSemanticsValidation pins the parameter validation of the extended
// Semantics surface: inconsistent probabilistic parameters and unknown
// filters are errors on every entry point.
func TestSemanticsValidation(t *testing.T) {
	ds := semanticsDataset(t)
	e, err := streach.Open("oracle", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	iv := streach.NewInterval(0, 50)
	bad := []streach.Semantics{
		{Prob: -0.1},
		{Prob: 1.5},
		{Prob: math.NaN()},
		{ProbThreshold: 0.5},                  // threshold without probability
		{Prob: 0.5, ProbThreshold: 1.5},       // threshold outside (0, 1]
		{Prob: 0.5, ProbThreshold: -0.5},      // ditto, negative
		{MCTrials: 100},                       // trials without probability
		{Prob: 0.5, MCTrials: -1},             // negative trials
		{MinDuration: -1},                     // negative duration bound
		{MaxWeight: -2},                       // negative weight bound
		{MaxWeight: math.NaN()},               // NaN weight bound
		{FilterID: "test:does-not-exist-abc"}, // unknown compiled filter
	}
	for i, sem := range bad {
		if _, err := e.Reachable(ctx, streach.Query{Src: 0, Dst: 1, Interval: iv, Semantics: sem}); err == nil {
			t.Errorf("case %d %+v: no validation error", i, sem)
		}
	}
}

// TestMonteCarloFacade exercises the MCTrials divert through the engine
// facade: estimates are seeded-deterministic, bounded, threshold-compared
// and explicitly non-native.
func TestMonteCarloFacade(t *testing.T) {
	ds := semanticsDataset(t)
	cn := ds.Contacts()
	ctx := context.Background()
	iv := streach.NewInterval(10, 150)
	for _, name := range []string{"oracle", "reachgraph", "uncertain:oracle"} {
		e, err := streach.Open(name, ds, streach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		q := streach.Query{Src: 0, Dst: 9, Interval: iv,
			Semantics: streach.Semantics{Prob: 0.6, ProbThreshold: 0.05, MCTrials: 2000, MCSeed: 99}}
		r, err := e.Reachable(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Native {
			t.Fatalf("%s: Monte-Carlo estimate flagged native", name)
		}
		if r.Prob < 0 || r.Prob > 1 {
			t.Fatalf("%s: estimate %v outside [0, 1]", name, r.Prob)
		}
		if want := r.Prob >= 0.05; r.Reachable != want {
			t.Fatalf("%s: Reachable=%v with estimate %v against threshold 0.05", name, r.Reachable, want)
		}
		again, err := e.Reachable(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if again.Prob != r.Prob {
			t.Fatalf("%s: seeded estimate not reproducible: %v then %v", name, r.Prob, again.Prob)
		}
		// Reliability bounds the best single path from above, so the
		// estimate may fall short of the exact best-path probability by
		// sampling error only.
		xq := q
		xq.Semantics.MCTrials, xq.Semantics.MCSeed = 0, 0
		exact, err := e.Reachable(ctx, xq)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Prob <= 0 || r.Prob < exact.Prob-0.2 {
			t.Fatalf("%s: estimate %v against exact best-path probability %v: want it positive and the shortfall within 0.2", name, r.Prob, exact.Prob)
		}
		// The estimator must agree with certainty: p=1 makes the estimate
		// the plain boolean answer.
		cq := q
		cq.Semantics = streach.Semantics{Prob: 1, MCTrials: 50, MCSeed: 1}
		cr, err := e.Reachable(ctx, cq)
		if err != nil {
			t.Fatal(err)
		}
		plain := cn.Oracle().Reachable(streach.Query{Src: q.Src, Dst: q.Dst, Interval: iv})
		if cr.Reachable != plain || (plain && cr.Prob != 1) {
			t.Fatalf("%s: certain estimate (%v, %v), oracle %v", name, cr.Reachable, cr.Prob, plain)
		}
	}
}

// TestLiveEngineFiltered replays a dataset into LiveEngines and runs
// filtered and probabilistic queries against the ingested feed: the live
// overlay, tail and sealed slabs must filter identically to the reference
// projection of a frozen extraction.
func TestLiveEngineFiltered(t *testing.T) {
	ds := semanticsDataset(t)
	cn := ds.Contacts()
	ctx := context.Background()
	for _, base := range []string{"oracle", "reachgraph-mem"} {
		base := base
		t.Run(base, func(t *testing.T) {
			le, err := streach.NewLiveEngine(base, ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{SegmentTicks: 37})
			if err != nil {
				t.Fatal(err)
			}
			positions := make([]streach.Point, ds.NumObjects())
			for tk := 0; tk < ds.NumTicks(); tk++ {
				for o := range positions {
					positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
				}
				if err := le.AddInstant(positions); err != nil {
					t.Fatal(err)
				}
			}
			iv := streach.NewInterval(15, 140)
			sems := []streach.Semantics{
				{MinDuration: 3},
				{Prob: 0.7, ProbThreshold: 0.3},
				{MinDuration: 2, Prob: 0.5, ProbThreshold: 0.2},
			}
			for _, sem := range sems {
				budget := int(sem.EffectiveBudget())
				for src := streach.ObjectID(0); src < 3; src++ {
					ref := referenceFiltered(cn, src, iv, budget, sem)
					for dst := streach.ObjectID(0); dst < streach.ObjectID(ds.NumObjects()); dst += 7 {
						r, err := le.Reachable(ctx, streach.Query{Src: src, Dst: dst, Interval: iv, Semantics: sem})
						if err != nil {
							t.Fatal(err)
						}
						want := ref.hops[dst] >= 0 || src == dst
						if r.Reachable != want {
							t.Fatalf("sem %+v src=%d dst=%d: got %v, reference %v", sem, src, dst, r.Reachable, want)
						}
						if r.Reachable && sem.Prob > 0 {
							if wantProb := math.Pow(sem.Prob, float64(r.Hops)); math.Abs(r.Prob-wantProb) > 1e-12 {
								t.Fatalf("sem %+v src=%d dst=%d: Prob %v, want %v", sem, src, dst, r.Prob, wantProb)
							}
						}
					}
				}
			}
		})
	}
}
