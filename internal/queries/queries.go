// Package queries defines reachability queries, the random workloads of §6,
// and a brute-force propagation oracle that serves as ground truth for every
// index and traversal strategy in streach.
package queries

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"streach/internal/contact"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// Query is a reachability query q : Src ⤳ Dst over Interval (§3.2).
// Semantics optionally refines the propagation model (hop bounds,
// earliest-arrival tracking); its zero value is plain boolean reachability.
type Query struct {
	Src, Dst  trajectory.ObjectID
	Interval  contact.Interval
	Semantics Semantics
}

func (q Query) String() string {
	return fmt.Sprintf("q: %d ~%v~> %d", q.Src, q.Interval, q.Dst)
}

// WorkloadConfig parametrizes RandomWorkload. The defaults reproduce §6:
// "query sources, destinations are selected randomly and query interval is
// selected as a random interval where the length of the interval is a
// random number between 150 and 350".
type WorkloadConfig struct {
	NumObjects int
	NumTicks   int
	Count      int
	MinLen     int // minimum interval length in ticks (default 150)
	MaxLen     int // maximum interval length in ticks (default 350)
	Seed       int64
}

// RandomWorkload generates Count random queries. Interval lengths are
// clamped to the dataset's time domain; Src and Dst are always distinct when
// NumObjects > 1.
func RandomWorkload(cfg WorkloadConfig) []Query {
	if cfg.MinLen <= 0 {
		cfg.MinLen = 150
	}
	if cfg.MaxLen < cfg.MinLen {
		cfg.MaxLen = 350
	}
	if cfg.MaxLen > cfg.NumTicks {
		cfg.MaxLen = cfg.NumTicks
	}
	if cfg.MinLen > cfg.MaxLen {
		cfg.MinLen = cfg.MaxLen
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]Query, 0, cfg.Count)
	for i := 0; i < cfg.Count; i++ {
		length := cfg.MinLen
		if cfg.MaxLen > cfg.MinLen {
			length += rng.Intn(cfg.MaxLen - cfg.MinLen + 1)
		}
		lo := 0
		if cfg.NumTicks > length {
			lo = rng.Intn(cfg.NumTicks - length + 1)
		}
		src := trajectory.ObjectID(rng.Intn(cfg.NumObjects))
		dst := src
		for dst == src && cfg.NumObjects > 1 {
			dst = trajectory.ObjectID(rng.Intn(cfg.NumObjects))
		}
		out = append(out, Query{
			Src: src,
			Dst: dst,
			Interval: contact.Interval{
				Lo: trajectory.Tick(lo),
				Hi: trajectory.Tick(lo + length - 1),
			},
		})
	}
	return out
}

// Oracle evaluates reachability by direct simulation of item propagation
// over the contact network: at every instant of the query interval the item
// spreads through the connected component of each carrier (transfer within a
// contact is instantaneous, and objects hold items forever). This is the
// semantics of §3.2 executed literally, with no indexing — O(|Tp|·|O|) per
// query — so every engine is validated against it.
//
// The oracle holds no query-scoped mutable state: each propagation
// allocates its own scratch, so one Oracle serves concurrent queries. (The
// filtered-projection cache behind Filtered is guarded by its own mutex.)
type Oracle struct {
	// src is what every propagation loop sweeps, instant by instant: a
	// contact network, or a live log's pair table read directly.
	src        instants
	numObjects int
	numTicks   int
	network    func() *contact.Network

	mu       sync.Mutex
	filtered map[Filter]*Oracle
}

// instants is the per-instant read contract the propagation loops sweep;
// *contact.Network and *contact.PairTable both satisfy it.
type instants interface {
	Snapshot(lo, hi trajectory.Tick, visit func(t trajectory.Tick, pairs []stjoin.Pair) bool)
}

// NewOracle returns an oracle over net.
func NewOracle(net *contact.Network) *Oracle {
	return &Oracle{src: net, numObjects: net.NumObjects, numTicks: net.NumTicks,
		network: func() *contact.Network { return net }}
}

// NewTableOracle returns an oracle sweeping tb's per-instant lists directly.
// The network tb stands for is materialized (once per table) only when a
// filtered projection or the Monte-Carlo sampler needs contact records.
func NewTableOracle(tb *contact.PairTable) *Oracle {
	return &Oracle{src: tb, numObjects: tb.NumObjects, numTicks: tb.NumTicks(), network: tb.Network}
}

// Network returns the contact network the oracle evaluates over.
func (o *Oracle) Network() *contact.Network { return o.network() }

// Filtered returns an oracle over the projection of the network onto the
// contacts f accepts. Because per-contact predicates depend only on the
// contact record, every query against the filtered oracle is the exact
// filtered-propagation answer — this is how the oracle (and every
// evaluator that falls back to it) is natively predicate-capable.
// Projections are cached per filter value, so workloads that sweep queries
// under one predicate pay the projection once.
func (o *Oracle) Filtered(f Filter) *Oracle {
	if !f.Active() {
		return o
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if cached, ok := o.filtered[f]; ok {
		return cached
	}
	if o.filtered == nil {
		o.filtered = make(map[Filter]*Oracle)
	}
	fo := NewOracle(o.Network().Filter(f.Match))
	o.filtered[f] = fo
	return fo
}

// Reachable answers the query against ground truth.
func (o *Oracle) Reachable(q Query) bool {
	ok, _ := o.ReachableCounted(q)
	return ok
}

// ReachableCounted is Reachable plus the number of objects infected (src
// included) before the simulation terminated.
func (o *Oracle) ReachableCounted(q Query) (bool, int) {
	reached := false
	expanded := 0
	o.propagate(q.Src, q.Interval, func(obj trajectory.ObjectID) bool {
		expanded++
		if obj == q.Dst {
			reached = true
			return false // stop early
		}
		return true
	})
	return reached, expanded
}

// ReachableSet returns all objects reachable from src during iv (including
// src itself), the batch primitive behind the paper's epidemic and
// watch-list scenarios (§1). The set is sorted ascending.
func (o *Oracle) ReachableSet(src trajectory.ObjectID, iv contact.Interval) []trajectory.ObjectID {
	return o.ReachableSetFrom([]trajectory.ObjectID{src}, iv)
}

// ReachableFromCounted answers the multi-source query: can an item held by
// any of the seeds at iv.Lo reach dst by iv.Hi? It returns the number of
// objects infected (seeds included) before the simulation terminated. This
// is the frontier primitive the cross-segment planner uses: the reachable
// set at the end of one time slab seeds the propagation of the next.
func (o *Oracle) ReachableFromCounted(seeds []trajectory.ObjectID, dst trajectory.ObjectID, iv contact.Interval) (bool, int) {
	reached := false
	expanded := 0
	o.propagateFrom(seeds, iv, nil, func(obj trajectory.ObjectID) bool {
		expanded++
		if obj == dst {
			reached = true
			return false
		}
		return true
	})
	return reached, expanded
}

// ReachableSetFrom returns all objects reachable from any seed during iv
// (seeds included when the interval overlaps the time domain), sorted
// ascending.
func (o *Oracle) ReachableSetFrom(seeds []trajectory.ObjectID, iv contact.Interval) []trajectory.ObjectID {
	var out []trajectory.ObjectID
	o.propagateFrom(seeds, iv, nil, func(obj trajectory.ObjectID) bool {
		out = append(out, obj)
		return true
	})
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// ReverseReachableSetFrom returns the deliverer set of seeds over iv: every
// object x such that an item held by x at iv.Lo reaches some seed by iv.Hi
// (seeds included when the interval overlaps the time domain). Propagation is
// symmetric in time, so this is ReachableSetFrom on the time-mirrored contact
// sequence — the backward frontier primitive of the bidirectional planner.
// The set is sorted ascending.
func (o *Oracle) ReverseReachableSetFrom(seeds []trajectory.ObjectID, iv contact.Interval) []trajectory.ObjectID {
	var out []trajectory.ObjectID
	o.reversePropagateFrom(seeds, iv, func(obj trajectory.ObjectID, _ trajectory.Tick) bool {
		out = append(out, obj)
		return true
	})
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// ReverseProfileFrom is ReverseReachableSetFrom plus each deliverer's latest
// departure tick: the last tick of iv at which the object can still pick up
// the item and have it delivered to a seed by iv.Hi (iv.Hi itself for the
// seeds). Entries are sorted by object; Hops is -1 — the reverse sweep does
// not track transfer counts.
func (o *Oracle) ReverseProfileFrom(seeds []trajectory.ObjectID, iv contact.Interval) []ProfileEntry {
	var out []ProfileEntry
	o.reversePropagateFrom(seeds, iv, func(obj trajectory.ObjectID, t trajectory.Tick) bool {
		out = append(out, ProfileEntry{Obj: obj, Hops: -1, Arrival: t})
		return true
	})
	sort.Slice(out, func(i, k int) bool { return out[i].Obj < out[k].Obj })
	return out
}

// reversePropagateFrom runs the time-mirrored simulation. With D(iv.Hi+1) =
// seeds, walking ticks descending gives D(t) = {x : component(x, t) ∩ D(t+1)
// ≠ ∅}: x's whole component at tick t becomes infected the moment x is, so x
// delivers exactly when its component contains someone who delivers from the
// next tick on. Objects hold items forever, so D only grows as t decreases;
// onDeliver fires once per object at its latest departure tick (seeds first,
// at iv.Hi). Snapshot iterates forward and reuses its pairs slice, so the
// per-tick contact lists are buffered (copied) before the descending pass.
func (o *Oracle) reversePropagateFrom(seeds []trajectory.ObjectID, iv contact.Interval,
	onDeliver func(trajectory.ObjectID, trajectory.Tick) bool) {

	n := o.numObjects
	if iv.Len() == 0 {
		return
	}
	delivers := make([]bool, n)
	any := false
	for _, s := range seeds {
		if int(s) >= 0 && int(s) < n {
			delivers[s] = true
			any = true
		}
	}
	if !any {
		return
	}
	for i := 0; i < n; i++ {
		if delivers[i] && !onDeliver(trajectory.ObjectID(i), iv.Hi) {
			return
		}
	}
	type tickPairs struct {
		t     trajectory.Tick
		pairs []stjoin.Pair
	}
	var ticks []tickPairs
	o.src.Snapshot(iv.Lo, iv.Hi, func(t trajectory.Tick, pairs []stjoin.Pair) bool {
		if len(pairs) == 0 {
			return true
		}
		ticks = append(ticks, tickPairs{t, append([]stjoin.Pair(nil), pairs...)})
		return true
	})
	parent := make([]int32, n)
	size := make([]int32, n)
	for k := len(ticks) - 1; k >= 0; k-- {
		t, pairs := ticks[k].t, ticks[k].pairs
		for i := 0; i < n; i++ {
			parent[i] = int32(i)
			size[i] = 1
		}
		for _, pr := range pairs {
			ra, rb := ufFind(parent, int32(pr.A)), ufFind(parent, int32(pr.B))
			if ra == rb {
				continue
			}
			if size[ra] < size[rb] {
				ra, rb = rb, ra
			}
			parent[rb] = ra
			size[ra] += size[rb]
		}
		// A component holding a deliverer delivers as a whole.
		deliverRoot := make(map[int32]bool)
		for i := 0; i < n; i++ {
			if delivers[i] {
				deliverRoot[ufFind(parent, int32(i))] = true
			}
		}
		for i := 0; i < n; i++ {
			if !delivers[i] && deliverRoot[ufFind(parent, int32(i))] {
				delivers[i] = true
				if !onDeliver(trajectory.ObjectID(i), t) {
					return
				}
			}
		}
	}
}

// EarliestReach returns the first tick in iv at which dst holds the item, or
// false. It implements |T'p| of Theorems 4.1/5.4: the smallest prefix of the
// query interval that decides a positive query.
func (o *Oracle) EarliestReach(q Query) (trajectory.Tick, bool) {
	when := trajectory.Tick(-1)
	cur := trajectory.Tick(-1)
	o.propagate2(q.Src, q.Interval, func(t trajectory.Tick) { cur = t }, func(obj trajectory.ObjectID) bool {
		if obj == q.Dst {
			when = cur
			return false
		}
		return true
	})
	return when, when >= 0
}

// propagate runs the simulation, invoking onInfect (src first, at iv.Lo) for
// every newly infected object. onInfect returning false aborts.
func (o *Oracle) propagate(src trajectory.ObjectID, iv contact.Interval, onInfect func(trajectory.ObjectID) bool) {
	o.propagate2(src, iv, nil, onInfect)
}

func (o *Oracle) propagate2(src trajectory.ObjectID, iv contact.Interval,
	onTick func(trajectory.Tick), onInfect func(trajectory.ObjectID) bool) {
	o.propagateFrom([]trajectory.ObjectID{src}, iv, onTick, onInfect)
}

// propagateFrom is the multi-source propagation: every valid seed holds the
// item at iv.Lo. onInfect is invoked for each seed first (ascending seed
// order), then for every newly infected object. Out-of-range seeds are
// ignored.
func (o *Oracle) propagateFrom(seeds []trajectory.ObjectID, iv contact.Interval,
	onTick func(trajectory.Tick), onInfect func(trajectory.ObjectID) bool) {

	n := o.numObjects
	if iv.Len() == 0 {
		return
	}
	// Per-call scratch keeps the oracle safe under concurrent queries.
	parent := make([]int32, n)
	size := make([]int32, n)
	infected := make([]bool, n)
	any := false
	for _, s := range seeds {
		if int(s) >= 0 && int(s) < n {
			infected[s] = true
			any = true
		}
	}
	if !any {
		return
	}
	if onTick != nil {
		onTick(iv.Lo)
	}
	for i := 0; i < n; i++ {
		if infected[i] && !onInfect(trajectory.ObjectID(i)) {
			return
		}
	}
	o.src.Snapshot(iv.Lo, iv.Hi, func(t trajectory.Tick, pairs []stjoin.Pair) bool {
		if len(pairs) == 0 {
			return true
		}
		if onTick != nil {
			onTick(t)
		}
		for i := 0; i < n; i++ {
			parent[i] = int32(i)
			size[i] = 1
		}
		for _, pr := range pairs {
			ra, rb := ufFind(parent, int32(pr.A)), ufFind(parent, int32(pr.B))
			if ra == rb {
				continue
			}
			if size[ra] < size[rb] {
				ra, rb = rb, ra
			}
			parent[rb] = ra
			size[ra] += size[rb]
		}
		// An infected member infects its whole component.
		infectedRoot := make(map[int32]bool)
		for i := 0; i < n; i++ {
			if infected[i] {
				infectedRoot[ufFind(parent, int32(i))] = true
			}
		}
		for i := 0; i < n; i++ {
			if !infected[i] && infectedRoot[ufFind(parent, int32(i))] {
				infected[i] = true
				if !onInfect(trajectory.ObjectID(i)) {
					return false
				}
			}
		}
		return true
	})
}

func ufFind(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}
