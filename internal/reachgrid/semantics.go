// Temporal-semantics evaluation over the ReachGrid layout: the guided
// bucket walk of Algorithm 1 with the per-instant spread replaced by a hop
// relaxation. The grid sees the actual contact pairs of every instant (it
// joins the buffered segments directly), so unlike the run-DAG backends it
// can natively count inter-object transfers: at each instant the pair list
// is relaxed to fixpoint, giving every object its multi-source BFS
// distance from the current carriers — exactly the oracle's transfer
// semantics. Cell loading stays guided: only the cells around already
// reached objects are admitted, and newly reached objects admit theirs
// within the same instant's fixpoint loop.
package reachgrid

import (
	"context"
	"fmt"
	"sort"

	"streach/internal/contact"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// AppendSemProfileFrom appends to dst the propagation profile of the seed
// frontier over iv: for every object reachable under the transfer budget
// (budget < 0 means unbounded), its minimal transfer count and earliest
// arrival tick, sorted by object ID. Seeds enter at max(Start, iv.Lo) with
// their recorded hop counts (seeds beyond the budget or starting after
// iv.Hi are ignored; out-of-range seed IDs are an error). When earlyDst is
// a valid object the sweep stops as soon as earlyDst becomes reachable —
// the profile is then partial but earlyDst's entry is exact. The int
// result is the number of objects reached. Page reads are charged to acct
// (which may be nil).
func (ix *Index) AppendSemProfileFrom(ctx context.Context, dst []queries.ProfileEntry, seeds []queries.SeedState, iv contact.Interval, budget int32, earlyDst trajectory.ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	iv = ix.clampInterval(iv)
	if iv.Len() == 0 {
		return dst, 0, nil
	}
	if budget < 0 || budget > queries.UnboundedHops {
		budget = queries.UnboundedHops
	}
	sc, acct := ix.begin(acct)
	defer ix.pool.Put(sc)
	if err := ix.seedSem(sc, seeds, iv, budget); err != nil {
		return dst, 0, err
	}
	if len(sc.reached) == 0 && len(sc.deferred) == 0 {
		return dst, 0, nil
	}
	dstReached := func() bool {
		if int(earlyDst) < 0 || int(earlyDst) >= ix.numObjects {
			return false
		}
		_, ok := sc.hops.Get(int(earlyDst))
		return ok
	}
	var err error
	if !dstReached() {
		// The destination is polled only once an instant is fully relaxed,
		// which keeps an early-terminated hop count exact at its tick. A
		// settled round is the relaxation's empty round, answered without
		// rerunning it: the pairs and hop counts it would see are the ones
		// the last round left at fixpoint.
		err = ix.walk(ctx, sc, iv, acct, func(t trajectory.Tick, grown bool) ([]trajectory.ObjectID, bool) {
			if !grown {
				return nil, dstReached()
			}
			fresh := ix.relaxAt(sc, t, budget)
			return fresh, len(fresh) == 0 && dstReached()
		})
	}
	// Deferred seeds the walk never reached (it stopped early) still hold
	// the item from their activation tick on, exactly like the oracle's.
	for _, s := range sc.deferred[sc.di:] {
		sc.activate(s, s.Start)
	}
	if err != nil {
		return dst, len(sc.reached), err
	}
	return appendSemEntries(dst, sc), len(sc.reached), nil
}

// seedSem prepares sc for a semantic sweep: the seeds holding the item at
// iv.Lo become carriers, the later ones are deferred in order of Start.
func (ix *Index) seedSem(sc *gridScratch, seeds []queries.SeedState, iv contact.Interval, budget int32) error {
	sc.hops.Reset(ix.numObjects)
	sc.arrTicks.Reset(ix.numObjects)
	for _, s := range seeds {
		if int(s.Obj) < 0 || int(s.Obj) >= ix.numObjects {
			return fmt.Errorf("reachgrid: seed %d outside [0, %d)", s.Obj, ix.numObjects)
		}
		if s.Hops < 0 || s.Hops > budget || s.Start > iv.Hi {
			continue
		}
		if s.Start > iv.Lo {
			sc.deferred = append(sc.deferred, s)
			continue
		}
		sc.activate(s, iv.Lo)
	}
	sort.Slice(sc.deferred, func(i, j int) bool { return sc.deferred[i].Start < sc.deferred[j].Start })
	return nil
}

// activate makes the seed a carrier from tick at on and reports whether it
// was not one before; an object that already carries the item keeps its
// arrival and the smaller hop count.
func (sc *gridScratch) activate(s queries.SeedState, at trajectory.Tick) bool {
	prev, ok := sc.hops.Get(int(s.Obj))
	if !ok {
		sc.arrTicks.Set(int(s.Obj), int32(at))
		sc.reached = append(sc.reached, s.Obj)
	}
	if !ok || s.Hops < prev {
		sc.hops.Set(int(s.Obj), s.Hops)
	}
	return !ok
}

// activateDue activates the deferred seeds (ascending by Start) whose
// activation tick the walk has reached and returns the new carriers among
// them (valid until the next call).
func (sc *gridScratch) activateDue(t trajectory.Tick) []trajectory.ObjectID {
	sc.activated = sc.activated[:0]
	for ; sc.di < len(sc.deferred) && sc.deferred[sc.di].Start <= t; sc.di++ {
		if s := sc.deferred[sc.di]; sc.activate(s, s.Start) {
			sc.activated = append(sc.activated, s.Obj)
		}
	}
	return sc.activated
}

// relaxAt joins the buffered segments at instant t and relaxes the contact
// pairs to fixpoint: every object's hop count becomes the minimal number
// of transfers from the current carriers, capped by the budget. It returns
// the objects newly reached at t (valid until the next call); hop
// improvements to already reached objects propagate within the same
// fixpoint but are not reported.
func (ix *Index) relaxAt(sc *gridScratch, t trajectory.Tick, budget int32) []trajectory.ObjectID {
	sc.gather(t)
	sc.fresh = sc.fresh[:0]
	if len(sc.pts) < 2 {
		return nil
	}
	sc.pairA, sc.pairB = sc.pairA[:0], sc.pairB[:0]
	sc.joiner.Join(sc.pts, func(a, b int) bool {
		sc.pairA = append(sc.pairA, sc.ids[a])
		sc.pairB = append(sc.pairB, sc.ids[b])
		return true
	})
	for changed := true; changed; {
		changed = false
		for i := range sc.pairA {
			if sc.relaxEdge(sc.pairA[i], sc.pairB[i], t, budget) {
				changed = true
			}
			if sc.relaxEdge(sc.pairB[i], sc.pairA[i], t, budget) {
				changed = true
			}
		}
	}
	return sc.fresh
}

// relaxEdge propagates one directed transfer from → to, reporting whether
// it improved to's hop count. Newly reached objects are collected in
// sc.fresh with their arrival stamped at t.
func (sc *gridScratch) relaxEdge(from, to trajectory.ObjectID, t trajectory.Tick, budget int32) bool {
	hf, ok := sc.hops.Get(int(from))
	if !ok || hf >= budget {
		return false
	}
	if ht, ok := sc.hops.Get(int(to)); ok && ht <= hf+1 {
		return false
	} else if !ok {
		sc.arrTicks.Set(int(to), int32(t))
		sc.fresh = append(sc.fresh, to)
	}
	sc.hops.Set(int(to), hf+1)
	return true
}

// appendSemEntries drains a semantic sweep's tables into sorted profile
// entries.
func appendSemEntries(dst []queries.ProfileEntry, sc *gridScratch) []queries.ProfileEntry {
	list := trajectory.SortDedupObjects(sc.reached)
	for _, o := range list {
		h, _ := sc.hops.Get(int(o))
		arr, _ := sc.arrTicks.Get(int(o))
		dst = append(dst, queries.ProfileEntry{Obj: o, Hops: h, Arrival: trajectory.Tick(arr)})
	}
	return dst
}
