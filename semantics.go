// The temporal-semantics query layer: earliest-arrival and hop-bounded
// point queries (Reachable with a Semantics) and top-k transfer-decay
// queries (TopKReachable) over every registry backend.
//
// Plain reachability answers *whether* an item spreads; contact-tracing
// and dissemination workloads also ask *when* it arrives, *through how
// many transfers*, and *which K contacts matter most* (the query families
// of Strzheletska & Tsotras and Ali et al.). The layer reduces all three
// to one primitive — the propagation profile: per reachable object, the
// minimal transfer count and the earliest arrival tick — and evaluates it
// natively inside the traversal cores wherever the backend's structure
// allows:
//
//   - oracle: per-instant hop relaxation, the ground truth (all semantics)
//   - reachgrid: the guided sweep with a hop relaxation as its
//     per-instant step instead of the boolean spread (all semantics — the
//     grid joins real contact pairs per instant)
//   - reachgraph, reachgraph-mem: a forward arrival sweep
//     over the run DAG (earliest-arrival only; runs collapse contact
//     components, so transfer counts are not derivable)
//   - segmented:*, bidir:* and LiveEngine: the cross-segment planner
//     carries arrival ticks and residual hop budgets across slab frontiers,
//     native whenever every slab core is
//   - shard:*: the scatter-gather relaxation exchanges arrival ticks across
//     the cut (hop-agnostic specs only)
//
// Everything else (hop-bounded or filtered queries on reachgraph, say) falls
// back to a brute-force oracle over the engine's source contacts; results
// carry a Native flag so the fallback is always explicit. All of it is one
// method, core.sweep, with the class of evaluation (semSpec) passed as
// data; this file compiles Semantics into a spec and projects the profile
// into the public result types. Plain boolean point queries go through
// core.reach instead and keep their zero-allocation steady state.

package streach

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"streach/internal/queries"
	"streach/internal/visit"
)

// Semantics optionally refines a Query's propagation model: a transfer
// (hop) bound, earliest-arrival tracking, contact predicates, uncertain
// contacts. The zero value is plain boolean reachability and stays on the
// engines' allocation-free boolean path.
type Semantics = queries.Semantics

// Ranked is one entry of a top-k reachability answer.
type Ranked struct {
	// Object is the reached object.
	Object ObjectID
	// Hops is its minimal transfer count; Arrival its earliest receipt
	// tick.
	Hops    int
	Arrival Tick
	// Weight is decay^Hops, the received item weight under transfer decay.
	Weight float64
}

// TopKResult is the typed answer to a TopKReachable query.
type TopKResult struct {
	// Src, Interval, K and Decay echo the evaluated query.
	Src      ObjectID
	Interval Interval
	K        int
	Decay    float64
	// Items holds at most K entries, ranked by Weight descending, then
	// Arrival ascending, then Object ascending. Src itself is excluded.
	Items []Ranked
	// Native, IO, Latency, Expanded mirror Result.
	Native   bool
	IO       IOStats
	Latency  time.Duration
	Expanded int
}

// semSpec classifies one sweep: its direction in time, the transfer budget
// (queries.UnboundedHops for none), whether per-object transfer counts
// must be reported (top-k decay ranking needs them even when unbounded),
// and the per-contact predicate restricting propagation. Probability does
// not appear: under the uniform per-contact p of §7 the best path
// probability is p^minHops and the threshold τ folds into the budget
// (Semantics.EffectiveBudget), so probabilistic queries ride the
// hop-tracking plumbing of every layer — the spec they compile to is just
// a budgeted, hop-reporting spec, and the engine wrapper stamps Result.Prob from
// the returned transfer count.
//
// done is not part of a query's meaning but of one sweep's: the shard
// planner's table of objects whose owners already expanded them, and from
// which tick (shard.go). ReachGraph sweeps prune by it; every other core
// ignores it, and the segmented planner, whose slab cores sweep slab-local
// ticks, clears it.
type semSpec struct {
	dir      direction
	budget   int32
	needHops bool
	filter   queries.Filter
	done     *visit.Ticks
}

// hopAgnostic is the spec of plain propagation — forward, unbounded
// transfers, no hop tracking, every contact: what boolean and set queries
// compile to, and what the planners carry frontiers across slab and shard
// boundaries under. Mid-interval shard hand-offs carry only arrival ticks;
// jointly-minimal (arrival, hops) labels do not compose across shards, so
// there hop-tracking specs fall back to the oracle.
var hopAgnostic = semSpec{budget: queries.UnboundedHops}

// hopAgnosticBackward is its time mirror, the spec the bidirectional
// planner grows the destination's deliverer set under.
var hopAgnosticBackward = semSpec{dir: backward, budget: queries.UnboundedHops}

// tracksHops reports whether the evaluation must count transfers.
func (s semSpec) tracksHops() bool {
	return s.budget != queries.UnboundedHops || s.needHops
}

// ErrBadSemantics wraps every Semantics validation failure — inconsistent
// probabilistic parameters, negative bounds, unregistered filter IDs — so
// callers (the serving layer in particular) can distinguish a malformed
// query from an evaluation failure.
var ErrBadSemantics = errors.New("streach: invalid query semantics")

// specFor compiles a query's Semantics into the evaluation spec, folding
// the probability threshold into the transfer budget and forcing hop
// tracking when a probability must be reported. It rejects inconsistent
// probabilistic parameters and unregistered filter IDs up front, so no
// evaluator ever sees a predicate it cannot resolve.
func specFor(sem Semantics) (semSpec, error) {
	if sem.Prob < 0 || sem.Prob > 1 || math.IsNaN(sem.Prob) {
		return semSpec{}, fmt.Errorf("%w: contact probability %v outside [0, 1]", ErrBadSemantics, sem.Prob)
	}
	if sem.ProbThreshold != 0 {
		if sem.Prob == 0 {
			return semSpec{}, fmt.Errorf("%w: probability threshold %v without a contact probability", ErrBadSemantics, sem.ProbThreshold)
		}
		if !(sem.ProbThreshold > 0 && sem.ProbThreshold <= 1) {
			return semSpec{}, fmt.Errorf("%w: probability threshold %v outside (0, 1]", ErrBadSemantics, sem.ProbThreshold)
		}
	}
	if sem.MCTrials < 0 {
		return semSpec{}, fmt.Errorf("%w: negative Monte-Carlo trial count %d", ErrBadSemantics, sem.MCTrials)
	}
	if sem.MCTrials > 0 && sem.Prob == 0 {
		return semSpec{}, fmt.Errorf("%w: Monte-Carlo trials without a contact probability", ErrBadSemantics)
	}
	if sem.MinDuration < 0 {
		return semSpec{}, fmt.Errorf("%w: negative minimum duration %d", ErrBadSemantics, sem.MinDuration)
	}
	if sem.MaxWeight < 0 || math.IsNaN(sem.MaxWeight) {
		return semSpec{}, fmt.Errorf("%w: invalid maximum weight %v", ErrBadSemantics, sem.MaxWeight)
	}
	if sem.FilterID != "" {
		if _, ok := queries.ResolveFilter(sem.FilterID); !ok {
			return semSpec{}, fmt.Errorf("%w: unregistered contact filter %q", ErrBadSemantics, sem.FilterID)
		}
	}
	return semSpec{
		budget:   sem.EffectiveBudget(),
		needHops: sem.Prob > 0,
		filter:   sem.Filter(),
	}, nil
}

// RegisterContactFilter registers a compiled per-contact predicate under
// id for use via Semantics.FilterID: queries then propagate only over
// contacts the predicate accepts, on every backend (natively where the
// backend evaluates contact records, through the exact oracle projection
// otherwise). Register at process setup; serving layers accept only
// registered IDs.
func RegisterContactFilter(id string, fn func(Contact) bool) {
	queries.RegisterFilter(id, fn)
}

// findEntry locates obj in a profile (entries are sorted by object).
func findEntry(entries []queries.ProfileEntry, obj ObjectID) (queries.ProfileEntry, bool) {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Obj >= obj })
	if i < len(entries) && entries[i].Obj == obj {
		return entries[i], true
	}
	return queries.ProfileEntry{}, false
}

// profile evaluates the propagation profile of src over the clamped,
// non-empty iv against the pinned core c: natively when c's sweep serves
// spec, through the brute-force oracle otherwise (native reports which).
// The entries may alias qs and must be consumed before it is released.
func (e *engine) profile(ctx context.Context, c core, qs *queryScratch, src ObjectID, iv Interval, spec semSpec, early ObjectID) (entries []queries.ProfileEntry, expanded int, native bool, err error) {
	qs.seeds = append(qs.seeds[:0], queries.SeedState{Obj: src})
	entries, expanded, err = c.sweep(ctx, qs.entries[:0], qs.seeds, iv, spec, early, &qs.acct)
	if errors.Is(err, errNotNative) {
		entries, expanded = e.fallback().Filtered(spec.filter).ProfileFrom(qs.seeds, iv, spec.budget, early)
		return entries, expanded, false, nil
	}
	qs.entries = entries
	return entries, expanded, true, err
}

// reachableSem answers a point query whose Semantics field is active:
// hop-bounded, predicate-filtered and/or probabilistic reachability with
// earliest-arrival tracking. Probabilistic queries report the best-path
// probability p^minHops under the τ-folded budget, except when MCTrials
// requests the seeded Monte-Carlo reliability estimate, which diverts to
// the exact oracle before any profile evaluation.
func (e *engine) reachableSem(ctx context.Context, q Query) (Result, error) {
	if err := validateIDs(e.numObjects, q.Src, q.Dst); err != nil {
		return Result{}, err
	}
	spec, err := specFor(q.Semantics)
	if err != nil {
		return Result{}, err
	}
	c, numTicks := e.pinned()
	iv := clampDomain(q.Interval, numTicks)
	res := Result{Query: q, Evaluated: true, Arrival: -1, Hops: -1}
	if q.Semantics.MCTrials > 0 {
		return e.monteCarlo(ctx, res, iv)
	}
	res.Native = c.supports(spec)
	if iv.Len() == 0 {
		return res, nil
	}
	if q.Src == q.Dst {
		res.Reachable, res.Arrival, res.Hops = true, iv.Lo, 0
		if q.Semantics.Prob > 0 {
			res.Prob = 1
		}
		return res, nil
	}
	qs := getQueryScratch()
	defer queryPool.Put(qs)
	start := time.Now()
	// Early termination stops the profile at the destination's earliest
	// arrival, whose delivery chain may use more transfers than the
	// interval's overall minimum. The best-path probability is p^minHops
	// over the whole interval, so probabilistic queries run it to the end.
	early := q.Dst
	if q.Semantics.Prob > 0 {
		early = queries.NoObject
	}
	entries, expanded, native, err := e.profile(ctx, c, qs, q.Src, iv, spec, early)
	if err != nil {
		return Result{}, err
	}
	res.Native = native
	if en, ok := findEntry(entries, q.Dst); ok {
		res.Reachable = true
		res.Arrival = en.Arrival
		res.Hops = int(en.Hops)
		if p := q.Semantics.Prob; p > 0 && res.Hops >= 0 {
			res.Prob = math.Pow(p, float64(res.Hops))
		}
	}
	res.IO = statsOf(qs.acct)
	res.Latency = time.Since(start)
	res.Expanded = expanded
	return res, nil
}

// monteCarlo completes res for a probabilistic point query over the clamped
// iv by seeded world sampling over the exact contact oracle (two-terminal
// reliability, an upper bound on the best-path probability). It is the
// documented fallback — never native — and reports the estimate in
// Result.Prob; Reachable compares it against the query's threshold. The
// sampler checks ctx between worlds, so a deadline stops it.
func (e *engine) monteCarlo(ctx context.Context, res Result, iv Interval) (Result, error) {
	if iv.Len() == 0 {
		return res, nil
	}
	start := time.Now()
	mq := res.Query
	mq.Interval = iv
	var err error
	if res.Prob, err = e.fallback().MonteCarloReachable(ctx, mq); err != nil {
		return Result{}, err
	}
	if tau := mq.Semantics.ProbThreshold; tau > 0 {
		res.Reachable = res.Prob >= tau
	} else {
		res.Reachable = res.Prob > 0
	}
	if mq.Src == mq.Dst {
		res.Arrival, res.Hops = iv.Lo, 0
	}
	res.Latency = time.Since(start)
	return res, nil
}

func (e *engine) TopKReachable(ctx context.Context, src ObjectID, iv Interval, k int, decay float64) (TopKResult, error) {
	if err := ctx.Err(); err != nil {
		return TopKResult{}, err
	}
	if err := validateIDs(e.numObjects, src, src); err != nil {
		return TopKResult{}, err
	}
	if err := validateTopK(k, decay); err != nil {
		return TopKResult{}, err
	}
	c, numTicks := e.pinned()
	spec := semSpec{budget: queries.UnboundedHops, needHops: true}
	res := TopKResult{Src: src, Interval: iv, K: k, Decay: decay, Native: c.supports(spec)}
	clamped := clampDomain(iv, numTicks)
	if clamped.Len() == 0 || k == 0 {
		return res, nil
	}
	qs := getQueryScratch()
	defer queryPool.Put(qs)
	start := time.Now()
	entries, expanded, native, err := e.profile(ctx, c, qs, src, clamped, spec, queries.NoObject)
	if err != nil {
		return TopKResult{}, err
	}
	res.Native = native
	res.Items = rankTopK(entries, src, k, decay)
	res.IO = statsOf(qs.acct)
	res.Latency = time.Since(start)
	res.Expanded = expanded
	return res, nil
}

// validateTopK rejects nonsensical top-k parameters.
func validateTopK(k int, decay float64) error {
	if k < 0 {
		return fmt.Errorf("streach: negative k %d", k)
	}
	if !(decay > 0 && decay <= 1) {
		return fmt.Errorf("streach: decay %v outside (0, 1]", decay)
	}
	return nil
}

// rankTopK ranks a full propagation profile under transfer decay and
// returns the top k entries, src excluded. Ordering is weight descending,
// then arrival ascending, then object ascending — fully deterministic.
func rankTopK(entries []queries.ProfileEntry, src ObjectID, k int, decay float64) []Ranked {
	items := make([]Ranked, 0, len(entries))
	for _, en := range entries {
		if en.Obj == src {
			continue
		}
		items = append(items, Ranked{
			Object:  en.Obj,
			Hops:    int(en.Hops),
			Arrival: en.Arrival,
			Weight:  math.Pow(decay, float64(en.Hops)),
		})
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.Object < b.Object
	})
	if len(items) > k {
		items = items[:k]
	}
	return items
}
