package queries

import (
	"context"
	"errors"
	"testing"

	"streach/internal/contact"
	"streach/internal/trajectory"
)

func TestEffectiveBudgetFoldsThreshold(t *testing.T) {
	cases := []struct {
		sem  Semantics
		want int32
	}{
		// No probability: plain hop budget.
		{Semantics{}, UnboundedHops},
		{Semantics{MaxHops: 3}, 3},
		// τ = p^2 allows exactly 2 transfers (epsilon must absorb the
		// float error of the exact power).
		{Semantics{Prob: 0.5, ProbThreshold: 0.25}, 2},
		{Semantics{Prob: 0.9, ProbThreshold: 0.9 * 0.9 * 0.9}, 3},
		// τ strictly between powers rounds down.
		{Semantics{Prob: 0.5, ProbThreshold: 0.3}, 1},
		// τ > p: not even one transfer survives.
		{Semantics{Prob: 0.5, ProbThreshold: 0.7}, 0},
		// The tighter of the two bounds wins, in both directions.
		{Semantics{MaxHops: 1, Prob: 0.5, ProbThreshold: 0.25}, 1},
		{Semantics{MaxHops: 9, Prob: 0.5, ProbThreshold: 0.25}, 2},
		// Certain contacts or no threshold leave the budget alone.
		{Semantics{Prob: 1, ProbThreshold: 0.5}, UnboundedHops},
		{Semantics{Prob: 0.5}, UnboundedHops},
	}
	for _, tc := range cases {
		if got := tc.sem.EffectiveBudget(); got != tc.want {
			t.Errorf("EffectiveBudget(%+v) = %d, want %d", tc.sem, got, tc.want)
		}
	}
}

func TestFilterMatch(t *testing.T) {
	RegisterFilter("test:odd-a", func(c contact.Contact) bool { return c.A%2 == 1 })
	long := contact.Contact{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 9}, Weight: 5}
	clipped := contact.Contact{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 1}, Dur: 10}
	short := contact.Contact{A: 1, B: 2, Validity: contact.Interval{Lo: 0, Hi: 1}, Weight: 50}

	cases := []struct {
		f    Filter
		c    contact.Contact
		want bool
	}{
		{Filter{}, short, true},
		{Filter{MinDuration: 5}, long, true},
		// A slab-clipped contact keeps its original duration via Dur.
		{Filter{MinDuration: 5}, clipped, true},
		{Filter{MinDuration: 5}, short, false},
		{Filter{MaxWeight: 10}, long, true},
		{Filter{MaxWeight: 10}, short, false},
		// Unweighted contacts (Weight 0) always pass a weight bound.
		{Filter{MaxWeight: 1}, clipped, true},
		{Filter{FilterID: "test:odd-a"}, short, true},
		{Filter{FilterID: "test:odd-a"}, long, false},
		// Unregistered predicate matches nothing rather than everything.
		{Filter{FilterID: "test:no-such"}, long, false},
		{Filter{MinDuration: 5, MaxWeight: 10, FilterID: "test:odd-a"}, long, false},
	}
	for _, tc := range cases {
		if got := tc.f.Match(tc.c); got != tc.want {
			t.Errorf("%+v.Match(%+v) = %v, want %v", tc.f, tc.c, got, tc.want)
		}
	}
	if (Filter{}).Active() {
		t.Error("zero filter is active")
	}
	if !(Filter{MinDuration: 1}).Active() {
		t.Error("min-duration filter inactive")
	}
}

func TestOracleFilteredProjection(t *testing.T) {
	// Path 0-1-2 where the 1-2 leg is a short contact: a min-duration
	// filter must cut propagation past object 1.
	net := contact.FromContacts(3, 10, []contact.Contact{
		{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 5}},
		{A: 1, B: 2, Validity: contact.Interval{Lo: 6, Hi: 6}},
	})
	o := NewOracle(net)
	iv := contact.Interval{Lo: 0, Hi: 9}
	if !o.Reachable(Query{Src: 0, Dst: 2, Interval: iv}) {
		t.Fatal("unfiltered path missing")
	}
	f := Filter{MinDuration: 3}
	fo := o.Filtered(f)
	if fo.Reachable(Query{Src: 0, Dst: 2, Interval: iv}) {
		t.Fatal("min-duration filter did not cut the short contact")
	}
	if !fo.Reachable(Query{Src: 0, Dst: 1, Interval: iv}) {
		t.Fatal("filter cut a qualifying contact")
	}
	// Projections are cached per filter value; the inactive filter is the
	// oracle itself.
	if o.Filtered(f) != fo {
		t.Error("filtered projection not cached")
	}
	if o.Filtered(Filter{}) != o {
		t.Error("inactive filter did not return the receiver")
	}
}

// chainNetwork is a disjoint k-hop chain 0-1-...-k, one contact per tick.
func chainNetwork(k int) *contact.Network {
	var cs []contact.Contact
	for i := 0; i < k; i++ {
		cs = append(cs, contact.Contact{
			A: trajectory.ObjectID(i), B: trajectory.ObjectID(i + 1),
			Validity: contact.Interval{Lo: trajectory.Tick(i), Hi: trajectory.Tick(i)},
		})
	}
	return contact.FromContacts(k+1, k, cs)
}

func TestMonteCarloMatchesSinglePath(t *testing.T) {
	// On a chain there is exactly one path, so reliability equals the
	// best-path probability p^k — the estimator must converge to it.
	o := NewOracle(chainNetwork(3))
	p := 0.7
	want := p * p * p
	q := Query{Src: 0, Dst: 3, Interval: contact.Interval{Lo: 0, Hi: 2},
		Semantics: Semantics{Prob: p, MCTrials: 20000, MCSeed: 42}}
	got := mcEstimate(t, o, q)
	if diff := got - want; diff < -0.02 || diff > 0.02 {
		t.Fatalf("MC estimate %.4f, want %.4f ± 0.02", got, want)
	}
	// Deterministic under a fixed seed.
	if again := mcEstimate(t, o, q); again != got {
		t.Fatalf("MC not reproducible: %.6f then %.6f", got, again)
	}
	// Different seed, same distribution: still inside the tolerance.
	q.Semantics.MCSeed = 7
	if got := mcEstimate(t, o, q); got-want < -0.02 || got-want > 0.02 {
		t.Fatalf("MC estimate %.4f at seed 7, want %.4f ± 0.02", got, want)
	}
}

// mcEstimate is MonteCarloReachable under a background context, which
// cannot fail.
func mcEstimate(t *testing.T, o *Oracle, q Query) float64 {
	t.Helper()
	got, err := o.MonteCarloReachable(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMonteCarloHonoursContext: a done context stops the sampler before
// its next world, with the context's error and no estimate.
func TestMonteCarloHonoursContext(t *testing.T) {
	o := NewOracle(chainNetwork(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{Src: 0, Dst: 3, Interval: contact.Interval{Lo: 0, Hi: 2},
		Semantics: Semantics{Prob: 0.7, MCTrials: 1 << 20, MCSeed: 42}}
	if got, err := o.MonteCarloReachable(ctx, q); !errors.Is(err, context.Canceled) || got != 0 {
		t.Fatalf("cancelled MonteCarloReachable = (%v, %v), want (0, context.Canceled)", got, err)
	}
}

func TestMonteCarloRespectsBudgetAndFilter(t *testing.T) {
	o := NewOracle(chainNetwork(3))
	// A 2-hop budget can never cross a 3-hop chain, whatever the coins say.
	got := mcEstimate(t, o, Query{Src: 0, Dst: 3, Interval: contact.Interval{Lo: 0, Hi: 2},
		Semantics: Semantics{Prob: 1, MaxHops: 2, MCTrials: 200, MCSeed: 1}})
	if got != 0 {
		t.Fatalf("budget-violating estimate %v, want 0", got)
	}
	// p = 1 with enough hops is certain.
	got = mcEstimate(t, o, Query{Src: 0, Dst: 3, Interval: contact.Interval{Lo: 0, Hi: 2},
		Semantics: Semantics{Prob: 1, MCTrials: 200, MCSeed: 1}})
	if got != 1 {
		t.Fatalf("certain chain estimate %v, want 1", got)
	}
	// Every chain contact is a single instant, so a min-duration filter
	// empties the network.
	got = mcEstimate(t, o, Query{Src: 0, Dst: 3, Interval: contact.Interval{Lo: 0, Hi: 2},
		Semantics: Semantics{Prob: 0.9, MinDuration: 2, MCTrials: 200, MCSeed: 1}})
	if got != 0 {
		t.Fatalf("filtered-out estimate %v, want 0", got)
	}
	// Self queries are certain; empty intervals impossible.
	if got := mcEstimate(t, o, Query{Src: 2, Dst: 2, Interval: contact.Interval{Lo: 0, Hi: 1},
		Semantics: Semantics{Prob: 0.1, MCTrials: 10, MCSeed: 3}}); got != 1 {
		t.Fatalf("self estimate %v, want 1", got)
	}
	if got := mcEstimate(t, o, Query{Src: 0, Dst: 3, Interval: contact.Interval{Lo: 2, Hi: 1},
		Semantics: Semantics{Prob: 0.9, MCTrials: 10, MCSeed: 3}}); got != 0 {
		t.Fatalf("empty-interval estimate %v, want 0", got)
	}
}
