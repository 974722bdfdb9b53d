// Sharded engines and the scatter-gather frontier planner.
//
// A sharded backend ("shard:<K>:<base>", or "shard:<K>:spatial:<base>" for
// the grid-cut partitioner) splits the object population into K shards
// (internal/shard) and opens one child core of the base backend per shard
// over that shard's sub-network — every contact incident to at least one
// shard-owned object, cross-shard contacts duplicated into both endpoint
// shards. Each disk-resident child owns a private BufferPool (unless the
// caller supplies a shared Options.Pool) and, for segmented bases, its own
// slab chain, so shards are independent engines end to end.
//
// Queries run as a scatter-gather relaxation over exact per-shard arrival
// profiles. The coordinator keeps a global best-arrival table and a pending
// set of (object, arrival) improvements; each round it groups the pending
// objects by owning shard and scatters ONE expansion per shard — the
// child's sweep over [earliest arrival, iv.Hi] with every pending object
// activating at its own arrival tick (SeedState.Start), the shards' sweeps
// run one after another on the query's goroutine — then gathers the
// per-shard profiles and exchanges only the boundary objects whose global
// arrival improved and whose owner is another shard. Correctness rests on the
// ownership invariant of the cut: shard s's sub-network contains every contact
// incident to an s-owned object, so one owner-side expansion from an
// object's best arrival covers everything reachable through that object —
// an improvement discovered by the owner itself needs no re-expansion
// (the discovering sweep already continued through it), and a foreign
// discovery needs exactly one hand-off to the owner. Arrivals only ever
// decrease and are bounded below by the interval start, so the relaxation
// terminates; because every recorded arrival is realized by a concatenation
// of within-shard propagation chains (sub-networks are subsets of the full
// network) and every optimal chain is covered link by link by owner
// expansions, the fixpoint equals the true earliest-arrival profile. With a
// destination early-exit the rounds additionally prune pending objects that
// cannot beat the destination's best-known arrival: an expansion seeded at
// tick t only produces arrivals >= t.
//
// Owner sweeps do not pay twice for the same run. The coordinator keeps a
// second table, done: for each object, the arrival its owner has expanded
// it from. A task's seeds enter it once their sweep has returned; an
// improvement the owner discovered itself enters it at gather, since the
// discovering sweep continued through it; a foreign discovery enters it
// only once its owner has run it. The table rides the sweep's semSpec, and
// a ReachGraph child skips a run whose members all have a done tick at or
// below the run's entry tick: it still reads the run, but records none of
// its members and pushes none of its successors. That is exact by the same
// ownership invariant — each member's owner already expanded it from that
// tick or earlier over a sub-network holding all of its contacts, so
// everything the run could reach was reached through those expansions, and
// every member's global arrival is already at or below the entry tick. A
// seed's own run is never skipped: a pending seed's arrival is below any
// done tick it had, because it is pending only for having improved.
//
// Every owner sweep charges the query's own pagefile.Stats accountant, so
// the engine invariant delta == total == pool holds under sharding as it
// does for one index; a failing sweep ends the query at once, its reads
// already charged. Sharding buys a working set that fits per-shard pools,
// not a faster planner: a query uses one core, whatever K is.
// Single-shard coordinators ("shard:1:<base>") delegate straight to their
// only child, preserving the allocation-free serial path.
//
// A sharded LiveEngine is the same coordinator over per-lane views: each
// ingest lane's pinned segmentedCore is one part.

package streach

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/shard"
	"streach/internal/visit"
)

// shardCut is the partition-quality and traffic accounting of one object
// cut, shared by every coordinator over it (a sharded LiveEngine builds one
// coordinator per query): contacts[s] counts shard s's sub-network
// (cross-shard contacts on both sides), cross of total contacts span the
// cut, and frontier counts the boundary objects queries handed across it —
// the dynamic scatter-gather traffic metric. Fixed at build time for a
// frozen engine; a live one counts as it routes.
type shardCut struct {
	contacts []atomic.Int64
	cross    atomic.Int64
	total    atomic.Int64
	frontier atomic.Int64
}

// shardCore is the object-partitioned combinator: one part per shard — a
// child core over the shard's sub-network, or a live ingest lane's view —
// plus the scatter-gather planner. Parts are immutable, so queries run
// fully in parallel like on every other core.
type shardCore struct {
	assign     *shard.Assignment
	parts      []core
	numObjects int
	numTicks   int
	cut        *shardCut
}

func (c *shardCore) reach(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, acct *pagefile.Stats) (bool, int, error) {
	if len(c.parts) == 1 {
		// Single shard: the child sees the whole network; its own point
		// query (including a bidir base's planner) is the serial fast path.
		return c.parts[0].reach(ctx, seeds, dst, iv, acct)
	}
	entries, n, err := c.scatterGather(ctx, nil, seedStates(seeds), iv, hopAgnostic, dst, acct)
	if err != nil {
		return false, n, err
	}
	_, ok := findEntry(entries, dst)
	return ok, n, nil
}

func (c *shardCore) sweep(ctx context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, early ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	switch {
	case !c.supports(spec):
		return out, 0, errNotNative
	case len(c.parts) == 1:
		return c.parts[0].sweep(ctx, out, seeds, iv, spec, early, acct)
	}
	return c.scatterGather(ctx, out, seeds, iv, spec, early, acct)
}

// supports: the relaxation exchanges forward arrival ticks only; hop counts
// do not compose across the cut. (A single shard has no cut, but keeps the
// family's matrix of native semantics.)
func (c *shardCore) supports(spec semSpec) bool {
	if spec.dir != forward || spec.tracksHops() {
		return false
	}
	for _, p := range c.parts {
		if !p.supports(spec) {
			return false
		}
	}
	return true
}

func (c *shardCore) disk() diskIO {
	var d diskIO
	for _, p := range c.parts {
		d.merge(p.disk())
	}
	return d
}

func (c *shardCore) shardStats() []ShardStats {
	out := make([]ShardStats, len(c.parts))
	for s, p := range c.parts {
		d := p.disk()
		out[s] = ShardStats{
			Shard:      s,
			Objects:    c.assign.Objects(s),
			Contacts:   int(c.cut.contacts[s].Load()),
			IndexBytes: d.indexBytes(),
			IO:         statsOf(d.ioTotals()),
		}
	}
	return out
}

// fillStats populates the sharding surface of an EngineStats snapshot.
func (c *shardCore) fillStats(st *EngineStats) {
	st.Shards = len(c.parts)
	st.Partitioner = c.assign.Partitioner
	if total := c.cut.total.Load(); total > 0 {
		st.CrossShardRatio = float64(c.cut.cross.Load()) / float64(total)
	}
	st.CrossShardFrontier = c.cut.frontier.Load()
	st.ShardDetails = c.shardStats()
}

// --- the scatter-gather relaxation planner ---

// shardPlanScratch is the pooled working state of one scatter-gather query:
// the global best-arrival table, the table of arrivals each object's owner
// has expanded it from, the reached-object list, the pending and
// next-round hand-off buffers, the task list of one round, and the seeds
// and profiles of the round's owner sweeps.
type shardPlanScratch struct {
	arrival visit.Ticks
	done    visit.Ticks
	reached []ObjectID
	pend    []ObjectID
	next    []ObjectID
	tasks   []shardPlanTask
	seeds   []queries.SeedState
	results []queries.ProfileEntry
}

// shardPlanTask is one owner-side expansion: the pending objects
// pend[lo:hi], all owned by shard part with best arrival t. Once the task
// has run, its profile ends at results[end].
type shardPlanTask struct {
	part   int
	t      Tick
	lo, hi int
	end    int
}

var shardPlanPool = visit.NewPool(func() *shardPlanScratch { return new(shardPlanScratch) })

// scatterGather is the scatter-gather relaxation over the parts' sweeps; see
// the file comment for the algorithm and its exactness argument. parts[s]
// sweeps arrival profiles over shard s's sub-network; spec must be
// hop-agnostic (callers gate on supports). The profile is appended to dst
// sorted by object with hop counts normalized to -1; with a valid earlyDst
// it may be partial, but earlyDst's entry is exact. Every boundary hand-off
// is counted in the cut's frontier.
func (c *shardCore) scatterGather(ctx context.Context, dst []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, earlyDst ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	assign, numObjects := c.assign, c.numObjects
	// Clamping to the coordinator's own domain — for live lanes the minimum
	// lane frontier — keeps a lane mid-append from leaking ticks its peers
	// have not covered yet.
	iv = clampDomain(iv, c.numTicks)
	if iv.Len() == 0 {
		return dst, 0, nil
	}
	ps := shardPlanPool.Get()
	defer shardPlanPool.Put(ps)
	ps.arrival.Reset(numObjects)
	ps.done.Reset(numObjects)
	spec.done = &ps.done
	ps.reached = ps.reached[:0]
	ps.pend = ps.pend[:0]
	for _, s := range seeds {
		if int(s.Obj) < 0 || int(s.Obj) >= numObjects || s.Start > iv.Hi {
			continue
		}
		if _, ok := ps.arrival.Get(int(s.Obj)); !ok {
			ps.arrival.Set(int(s.Obj), int32(max(s.Start, iv.Lo)))
			ps.reached = append(ps.reached, s.Obj)
			ps.pend = append(ps.pend, s.Obj)
		}
	}
	hasEarly := int(earlyDst) >= 0 && int(earlyDst) < numObjects
	var cross int64
	defer func() { c.cut.frontier.Add(cross) }()
	expanded := 0
	for len(ps.pend) > 0 {
		if err := ctx.Err(); err != nil {
			return dst, expanded, err
		}
		// Group the pending hand-offs into one task per owner — every
		// pending object rides the same owner-side sweep, activating at its
		// own best-known arrival — pruning objects that can no longer
		// improve the destination. Sorting by (owner, arrival) makes each
		// owner's run contiguous with its earliest arrival first, which
		// becomes the task's sweep start.
		sort.Slice(ps.pend, func(i, j int) bool {
			a, b := ps.pend[i], ps.pend[j]
			oa, ob := assign.Owner(a), assign.Owner(b)
			if oa != ob {
				return oa < ob
			}
			ta, _ := ps.arrival.Get(int(a))
			tb, _ := ps.arrival.Get(int(b))
			if ta != tb {
				return ta < tb
			}
			return a < b
		})
		bestDst := int32(-1)
		if hasEarly {
			if v, ok := ps.arrival.Get(int(earlyDst)); ok {
				bestDst = v
			}
		}
		ps.tasks = ps.tasks[:0]
		w := 0
		for i := 0; i < len(ps.pend); i++ {
			o := ps.pend[i]
			if i > 0 && o == ps.pend[i-1] {
				continue // improved twice before expansion: expand once
			}
			t, _ := ps.arrival.Get(int(o))
			if bestDst >= 0 && t >= bestDst {
				continue // cannot beat the destination's known arrival
			}
			owner := assign.Owner(o)
			if n := len(ps.tasks); n > 0 && ps.tasks[n-1].part == owner {
				ps.pend[w] = o
				w++
				ps.tasks[n-1].hi = w
				continue
			}
			ps.pend[w] = o
			w++
			ps.tasks = append(ps.tasks, shardPlanTask{part: owner, t: Tick(t), lo: w - 1, hi: w})
		}
		ps.pend = ps.pend[:w]
		if len(ps.tasks) == 0 {
			break
		}
		// Scatter: sweep every task on its owner over [earliest arrival,
		// iv.Hi], one after another, each pending object activating at its
		// own best-known arrival. Each owner reads its own store, so its
		// sweep starts with the disk head elsewhere. Child profiles are
		// global-tick, and the arrival table stays untouched until every
		// task has run.
		ps.results = ps.results[:0]
		for i := range ps.tasks {
			task := &ps.tasks[i]
			ps.seeds = ps.seeds[:0]
			for _, o := range ps.pend[task.lo:task.hi] {
				t, _ := ps.arrival.Get(int(o))
				ps.seeds = append(ps.seeds, queries.SeedState{Obj: o, Start: Tick(t)})
			}
			acct.ForgetPosition()
			out, n, err := c.parts[task.part].sweep(ctx, ps.results, ps.seeds,
				Interval{Lo: task.t, Hi: iv.Hi}, spec, earlyDst, acct)
			ps.results = out
			expanded += n
			if err != nil {
				return dst, expanded, err
			}
			task.end = len(ps.results)
			for _, s := range ps.seeds {
				ps.done.Set(int(s.Obj), int32(s.Start))
			}
		}
		// Gather: merge the per-shard profiles into the global arrival
		// table; only improvements owned by a different shard than the one
		// that discovered them re-enter the pending set (the discovering
		// sweep already expanded owner-local improvements exhaustively, so
		// those enter done here; a foreign one enters it once its owner
		// has run it).
		ps.next = ps.next[:0]
		from := 0
		for _, task := range ps.tasks {
			for _, en := range ps.results[from:task.end] {
				cur, ok := ps.arrival.Get(int(en.Obj))
				if ok && int32(en.Arrival) >= cur {
					continue
				}
				ps.arrival.Set(int(en.Obj), int32(en.Arrival))
				if !ok {
					ps.reached = append(ps.reached, en.Obj)
				}
				if assign.Owner(en.Obj) == task.part {
					ps.done.Set(int(en.Obj), int32(en.Arrival))
				} else {
					ps.next = append(ps.next, en.Obj)
					cross++
				}
			}
			from = task.end
		}
		ps.pend, ps.next = ps.next, ps.pend
	}
	slices.Sort(ps.reached)
	for _, o := range ps.reached {
		arr, _ := ps.arrival.Get(int(o))
		dst = append(dst, queries.ProfileEntry{Obj: o, Hops: -1, Arrival: Tick(arr)})
	}
	return dst, expanded, nil
}

// --- the "shard:" combinator ---

// shardOver is the "shard:<K>[:hash|:spatial]:" combinator: base's index
// built once per object shard under the scatter-gather planner. The hash
// partitioner is the unnamed default of the canonical name; spatial is
// spelled out and needs trajectories to snap.
func shardOver(k int, partitioner string, base backendSpec) backendSpec {
	name := fmt.Sprintf("shard:%d:%s", k, base.info.Name)
	if partitioner == "spatial" {
		name = fmt.Sprintf("shard:%d:spatial:%s", k, base.info.Name)
	}
	return backendSpec{
		info: BackendInfo{
			Name: name,
			Description: fmt.Sprintf("%d-way %s-partitioned %s shards with a scatter-gather frontier planner",
				k, partitioner, base.info.Name),
			DiskResident:      base.info.DiskResident,
			NeedsTrajectories: partitioner == "spatial",
		},
		open: func(src Source, opts Options) (core, error) {
			return buildShardCore(k, partitioner, base, src, opts)
		},
		base:        &base,
		shards:      k,
		partitioner: partitioner,
	}
}

// buildShardCore partitions the source, cuts the contact network and opens
// one base child per shard. Disk-resident children each get a private
// buffer pool of the configured page budget unless the caller supplied a
// shared Options.Pool; segmented bases then window their own slab chains
// inside each shard.
func buildShardCore(k int, partitioner string, base backendSpec, src Source, opts Options) (*shardCore, error) {
	if base.info.NeedsTrajectories {
		return nil, fmt.Errorf("streach: shard base %q indexes trajectories; shard children build from per-shard contact networks", base.info.Name)
	}
	numObjects, numTicks := sourceDims(src)
	if numTicks == 0 {
		return nil, fmt.Errorf("streach: shard %q: empty time domain", base.info.Name)
	}
	var assign *shard.Assignment
	var err error
	if partitioner == "spatial" {
		assign, err = shard.Spatial(src.sourceDataset().d, k)
	} else {
		assign, err = shard.Hash(numObjects, k)
	}
	if err != nil {
		return nil, err
	}
	split := shard.Cut(src.sourceContacts().net, assign)
	c := &shardCore{
		assign:     assign,
		numObjects: numObjects,
		numTicks:   numTicks,
		cut:        &shardCut{contacts: make([]atomic.Int64, k)},
	}
	c.cut.cross.Store(int64(split.CrossContacts))
	c.cut.total.Store(int64(split.TotalContacts))
	for s := 0; s < k; s++ {
		c.cut.contacts[s].Store(int64(len(split.Parts[s].Contacts)))
		child, err := base.build(&ContactNetwork{net: split.Parts[s]}, withSharedPool(opts, base.info.DiskResident))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		c.parts = append(c.parts, child)
	}
	return c, nil
}
