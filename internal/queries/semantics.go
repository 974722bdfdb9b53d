// Temporal query semantics beyond boolean reachability: earliest-arrival
// ticks, hop (transfer) bounds, and per-transfer decay weights, after the
// query families of Strzheletska & Tsotras ("Reachability and Top-k
// Reachability Queries with Transfer Decay") and Ali et al. ("An Efficient
// Index for Contact Tracing Query").
//
// The common primitive is the propagation profile: for every object
// reachable from a seed frontier during an interval — under an optional
// transfer budget — the minimal number of inter-object transfers and the
// earliest tick the object holds the item. Within one instant the item
// still crosses a whole contact chain (transfer inside a contact is
// instantaneous, §3.2), but every contact edge on the chain costs one
// transfer, so hop counts inside an instant's contact graph are BFS
// distances from the carriers. The oracle evaluates this literally with a
// per-instant relaxation to fixpoint, serving as ground truth for the
// indexes' native implementations.
package queries

import (
	"math"
	"sort"
	"sync"

	"streach/internal/contact"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// Semantics refines the propagation model of a reachability query. The
// zero value selects plain boolean semantics, keeping the query on the
// engines' allocation-free boolean path.
type Semantics struct {
	// MaxHops bounds the number of inter-object transfers the item may
	// take; 0 means unbounded. A chain a→b→c within one instant costs two
	// transfers.
	MaxHops int
	// TrackArrival requests the earliest-arrival tick (and, where the
	// evaluator tracks them, the minimal transfer count) in the Result.
	TrackArrival bool
	// Decay is the per-transfer weight d ∈ (0, 1] of top-k ranking: an
	// item forwarded over h transfers arrives with weight d^h. Point
	// queries ignore it; TopKReachable sets it from its argument.
	Decay float64

	// MinDuration restricts propagation to contacts whose full original
	// validity spans at least this many ticks (contact-tracing exposure
	// thresholds: a transmission needs sustained proximity); 0 disables.
	MinDuration int
	// MaxWeight restricts propagation to contacts whose closest approach
	// at extraction time was at most this many metres; 0 disables. Contacts
	// without a recorded weight (incremental pair-set feeds) count as
	// distance 0 and always pass.
	MaxWeight float64
	// FilterID names a predicate registered with RegisterFilter; the query
	// propagates only over contacts the predicate accepts. Empty disables.
	FilterID string

	// Prob is the uncertain-contact extension (§7): every contact transmits
	// independently with probability Prob ∈ (0, 1]; 0 keeps propagation
	// deterministic. The best path probability Prob^hops is reported in the
	// Result.
	Prob float64
	// ProbThreshold is the reachability threshold τ ∈ (0, 1]: dst counts as
	// reachable only via a path of probability ≥ τ. Because path
	// probability is Prob^hops, τ folds into a transfer budget (see
	// EffectiveBudget) and rides the hop-tracking plumbing exactly. Only
	// meaningful with Prob set.
	ProbThreshold float64
	// MCTrials selects the seeded Monte-Carlo estimator instead of exact
	// evaluation: that many sampled propagation worlds estimate the
	// reachability probability (network reliability, an upper bound on the
	// best single-path probability). Only meaningful with Prob set; 0 keeps
	// evaluation exact.
	MCTrials int
	// MCSeed seeds the Monte-Carlo sampler for reproducibility.
	MCSeed int64
}

// Active reports whether the query needs the semantics evaluation path.
// Any nonzero extension field routes there — including out-of-range or NaN
// values (NaN != 0), so malformed parameters reach validation instead of
// silently riding the plain boolean path.
func (s Semantics) Active() bool {
	return s.MaxHops > 0 || s.TrackArrival || s.Decay != 0 ||
		s.MinDuration != 0 || s.MaxWeight != 0 || s.FilterID != "" ||
		s.Prob != 0 || s.ProbThreshold != 0 || s.MCTrials != 0
}

// HopBudget returns the transfer budget as the evaluators consume it:
// MaxHops when bounded, UnboundedHops otherwise.
func (s Semantics) HopBudget() int32 {
	if s.MaxHops > 0 && int64(s.MaxHops) < int64(UnboundedHops) {
		return int32(s.MaxHops)
	}
	return UnboundedHops
}

// EffectiveBudget folds the probability threshold into the transfer
// budget: a path of h transfers has probability Prob^h, so Prob^h ≥ τ is
// exactly h ≤ log τ / log Prob. The returned budget is the tighter of that
// bound and HopBudget — which is how probabilistic reachability rides
// every hop-tracking evaluator (the profile oracle, the guided grid sweep,
// the cross-segment planner's residual budgets) without new propagation
// code.
func (s Semantics) EffectiveBudget() int32 {
	b := s.HopBudget()
	if s.Prob > 0 && s.Prob < 1 && s.ProbThreshold > 0 && s.ProbThreshold <= 1 {
		// The epsilon absorbs float error at exact powers (τ = p^k).
		h := math.Floor(math.Log(s.ProbThreshold)/math.Log(s.Prob) + 1e-9)
		if h < 0 {
			h = 0
		}
		if h < float64(b) {
			b = int32(h)
		}
	}
	return b
}

// Filter returns the query's compiled contact predicate.
func (s Semantics) Filter() Filter {
	return Filter{MinDuration: s.MinDuration, MaxWeight: s.MaxWeight, FilterID: s.FilterID}
}

// Filter is a compiled per-contact predicate: the conjunction of the
// built-in duration/weight bounds and an optional registered predicate.
// The zero value accepts everything. Filters are comparable, so evaluators
// cache per-filter network projections keyed on the value.
type Filter struct {
	MinDuration int
	MaxWeight   float64
	FilterID    string
}

// Active reports whether the filter rejects anything.
func (f Filter) Active() bool {
	return f.MinDuration > 0 || f.MaxWeight > 0 || f.FilterID != ""
}

// Match reports whether contact c participates in filtered propagation.
// The FilterID must be registered (validate with ResolveFilter first; an
// unregistered ID matches nothing rather than silently passing).
func (f Filter) Match(c contact.Contact) bool {
	if f.MinDuration > 0 && int(c.Duration()) < f.MinDuration {
		return false
	}
	if f.MaxWeight > 0 && float64(c.Weight) > f.MaxWeight {
		return false
	}
	if f.FilterID != "" {
		fn, ok := ResolveFilter(f.FilterID)
		if !ok || !fn(c) {
			return false
		}
	}
	return true
}

// filterRegistry holds the compiled contact predicates addressable from
// query semantics by ID.
var filterRegistry sync.Map // string → func(contact.Contact) bool

// RegisterFilter registers (or replaces) a compiled contact predicate
// under id. Queries reference it via Semantics.FilterID; serving layers
// accept only registered IDs, so the predicate set is fixed at process
// setup rather than parsed from requests.
func RegisterFilter(id string, fn func(contact.Contact) bool) {
	if id == "" || fn == nil {
		panic("queries: RegisterFilter needs a non-empty id and a predicate")
	}
	filterRegistry.Store(id, fn)
}

// ResolveFilter returns the predicate registered under id.
func ResolveFilter(id string) (func(contact.Contact) bool, bool) {
	v, ok := filterRegistry.Load(id)
	if !ok {
		return nil, false
	}
	return v.(func(contact.Contact) bool), true
}

// UnboundedHops is the transfer budget meaning "no bound". It is one below
// MaxInt32 so budget+1 arithmetic cannot overflow.
const UnboundedHops = int32(math.MaxInt32 - 1)

// NoObject is the earlyDst value disabling early termination.
const NoObject = trajectory.ObjectID(-1)

// Direction orients a propagation in time.
type Direction int8

const (
	// Forward propagates holders: who receives the item, and when first.
	Forward Direction = iota
	// Backward propagates deliverers: who, holding the item, gets it to a
	// seed by the interval end, and until when at the latest.
	Backward
)

// SeedState is one object of a propagation frontier together with the
// transfers already spent reaching it — the state the cross-segment
// planner carries over slab boundaries (a seed entering the next slab with
// hops h has budget-h residual transfers left).
type SeedState struct {
	Obj  trajectory.ObjectID
	Hops int32
	// Start is the tick the seed begins holding the item. Values at or
	// below the query interval's start (including the zero value) mean
	// "holds it from the interval start"; later values defer the seed's
	// activation, which is how the scatter-gather shard planner hands a
	// whole round of boundary discoveries — each at its own best-known
	// arrival — to an owner shard as one multi-seed sweep.
	Start trajectory.Tick
}

// ProfileEntry is one reachable object's propagation profile.
type ProfileEntry struct {
	Obj trajectory.ObjectID
	// Hops is the minimal number of transfers over all valid paths within
	// the interval; -1 when the evaluator does not track transfer counts
	// (hop-unbounded arrival sweeps).
	Hops int32
	// Arrival is the earliest tick at which the object holds the item
	// (seeds report the interval start).
	Arrival trajectory.Tick
}

// ProfileFrom computes the propagation profile of the seed frontier over
// iv: for every object reachable under the transfer budget (budget < 0
// means unbounded), its minimal transfer count and earliest arrival tick.
// Seeds enter holding the item at max(Start, iv.Lo) with their recorded
// hop counts (seeds beyond the budget, outside the ID space, or starting
// after iv.Hi are ignored). When earlyDst is a valid object, the
// simulation stops as soon as earlyDst is reachable — the returned profile
// is then partial but earlyDst's entry is exact. Entries are sorted by
// object ID; the int result is the number of objects reached (the
// expansion counter).
func (o *Oracle) ProfileFrom(seeds []SeedState, iv contact.Interval, budget int32, earlyDst trajectory.ObjectID) ([]ProfileEntry, int) {
	n := o.net.NumObjects
	iv = iv.Intersect(contact.Interval{Lo: 0, Hi: trajectory.Tick(o.net.NumTicks - 1)})
	if o.net.NumTicks == 0 || iv.Len() == 0 {
		return nil, 0
	}
	if budget < 0 || budget > UnboundedHops {
		budget = UnboundedHops
	}
	// Per-call scratch keeps the oracle safe under concurrent queries.
	hops := make([]int32, n)
	arrival := make([]trajectory.Tick, n)
	for i := range hops {
		hops[i] = -1
	}
	var reached []trajectory.ObjectID
	activate := func(s SeedState, at trajectory.Tick) {
		if hops[s.Obj] < 0 {
			arrival[s.Obj] = at
			reached = append(reached, s.Obj)
			hops[s.Obj] = s.Hops
		} else if s.Hops < hops[s.Obj] {
			hops[s.Obj] = s.Hops
		}
	}
	var deferred []SeedState // seeds activating after iv.Lo, ordered by Start
	for _, s := range seeds {
		if int(s.Obj) < 0 || int(s.Obj) >= n || s.Hops < 0 || s.Hops > budget {
			continue
		}
		if s.Start > iv.Hi {
			continue
		}
		if s.Start > iv.Lo {
			deferred = append(deferred, s)
			continue
		}
		activate(s, iv.Lo)
	}
	if len(reached) == 0 && len(deferred) == 0 {
		return nil, 0
	}
	sort.Slice(deferred, func(i, j int) bool { return deferred[i].Start < deferred[j].Start })
	di := 0
	dstReached := func() bool {
		return int(earlyDst) >= 0 && int(earlyDst) < n && hops[earlyDst] >= 0
	}
	if !dstReached() {
		o.net.Snapshot(iv.Lo, iv.Hi, func(t trajectory.Tick, pairs []stjoin.Pair) bool {
			// Seeds whose activation tick the sweep has reached join the
			// carriers before the instant relaxes (an earlier organic
			// arrival, if any, is kept by activate).
			for di < len(deferred) && deferred[di].Start <= t {
				activate(deferred[di], deferred[di].Start)
				di++
			}
			// Relax the instant's contact graph to fixpoint: hop counts
			// inside one instant are multi-source BFS distances, and
			// repeated sweeps over the (small) pair list converge to them
			// even though carriers start at different depths.
			for changed := true; changed; {
				changed = false
				for _, pr := range pairs {
					if relaxPair(hops, arrival, &reached, budget, t, pr.A, pr.B) {
						changed = true
					}
					if relaxPair(hops, arrival, &reached, budget, t, pr.B, pr.A) {
						changed = true
					}
				}
			}
			return !dstReached()
		})
	}
	// Deferred seeds the sweep never visited (it stops early on earlyDst,
	// and some snapshots skip contact-free instants) still hold the item
	// from their activation tick — with no contacts after it, holding is
	// all they do, so recording the activation is exact.
	for ; di < len(deferred); di++ {
		activate(deferred[di], deferred[di].Start)
	}
	reached = trajectory.SortDedupObjects(reached)
	entries := make([]ProfileEntry, len(reached))
	for i, obj := range reached {
		entries[i] = ProfileEntry{Obj: obj, Hops: hops[obj], Arrival: arrival[obj]}
	}
	return entries, len(reached)
}

// relaxPair propagates one directed transfer from carrier to other,
// reporting whether it improved other's hop count.
func relaxPair(hops []int32, arrival []trajectory.Tick, reached *[]trajectory.ObjectID,
	budget int32, t trajectory.Tick, from, to trajectory.ObjectID) bool {

	hf := hops[from]
	if hf < 0 || hf >= budget {
		return false
	}
	if ht := hops[to]; ht >= 0 && ht <= hf+1 {
		return false
	}
	if hops[to] < 0 {
		arrival[to] = t
		*reached = append(*reached, to)
	}
	hops[to] = hf + 1
	return true
}
