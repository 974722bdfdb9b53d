// Traversal strategies over HN (§5.2, §6.2.2).
//
// There are two kinds of walk here, and one body for each.
//
// The point query is BM-BFS, the paper's contribution: a bidirectional BFS
// where the forward sweep covers [t1, mid] and the backward sweep covers
// [mid, t2] (mid = (t1+t2)/2), taking long edges at the highest admissible
// resolution in both directions. The query is answered positively as soon
// as the forward and backward object sets intersect: an object that holds
// the item by mid and can still deliver it to the destination after mid
// (Theorem 5.3 and Property 5.2).
//
// Invariants maintained by the expansion rules, which carry the correctness
// proof:
//
//   - Forward: a vertex is visited with an arrival time a within its span
//     and a ≤ mid; all of its member objects hold the item at a. A level-L
//     edge is taken only when its departure boundary is ≥ the arrival time
//     (the item is already present at departure) and its arrival boundary is
//     ≤ mid (the sweep never overshoots the meeting point). Because a
//     level-L edge enumerates *every* vertex reachable at the arrival
//     boundary, skipping intermediate vertices loses no objects: object
//     sets only grow at run boundaries, and every carrier's own run at the
//     boundary is among the targets.
//   - Backward: the exact time-mirror, using the reverse long edges that
//     dn.Graph.Augment builds beside the forward ones, whose boundaries are
//     aligned from the end of the time domain.
//
// B-BFS is BM-BFS restricted to resolution DN1; E-BFS and E-DFS are
// unidirectional traversals that ignore vertex members and long edges and
// terminate only on reaching the destination vertex itself (the naïve
// baselines of Figure 13).
//
// Every other answer — set, arrival or departure profile, the frontier a
// planner carries between slabs and shards — is a projection of sweep, the
// one DN1 collector, with its direction passed as data: over DN1 the
// backward walk is the forward one with the span ends, the edge lists and
// the sense of "better" swapped, so one body serves both.
//
// stepForward and stepBackward are deliberately *not* folded the same way.
// They are the point query's hot path, and their long-edge arithmetic is
// not a sign flip: forward boundaries (boundary) are multiples of L counted
// from tick 0, reverse ones (revBoundaryOf) from the last tick of the
// domain, so a shared body would branch on direction in every second line.
//
// A vertex to visit is its ID alone. On disk that is the index's own
// numbering, partition by partition, so the partition holding a vertex
// follows from its ID and no edge carries one; in memory it is the graph's.
// Both keep every edge list in the graph's order, so a traversal meets the
// same runs in the same order on either.
//
// All traversal state — visited tables, object sets, frontier queues — is
// a pooled scratch of epoch-stamped arrays over the graph's dense node and
// object ID spaces (internal/visit), so steady-state queries allocate
// nothing: a query checks out one scratch, Reset bumps its epochs in O(1),
// and the backing arrays are recycled through the engine's sync.Pool.
package reachgraph

import (
	"context"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/queries"
	"streach/internal/trajectory"
	"streach/internal/visit"
)

// Strategy selects a traversal algorithm.
type Strategy int

const (
	// BMBFS is bidirectional multi-resolution BFS (Algorithm 2).
	BMBFS Strategy = iota
	// BBFS is bidirectional BFS at resolution DN1 only.
	BBFS
	// EBFS is unidirectional external BFS over DN1.
	EBFS
	// EDFS is unidirectional external DFS over DN1, the paper's baseline.
	EDFS
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case BMBFS:
		return "BM-BFS"
	case BBFS:
		return "B-BFS"
	case EBFS:
		return "E-BFS"
	case EDFS:
		return "E-DFS"
	}
	return "unknown"
}

// graphAccess abstracts vertex retrieval so the same traversal code runs
// against the disk-resident index (charging I/O) and the memory-resident
// graph (Table 5a). Each implementation is one query's, held in its scratch
// (cursor, memAccess) and passed by pointer, so boxing it into the
// interface costs nothing on the hot path.
//
// Every traversal loop holds one record at a time: it calls vertex, then
// need, then reads the edges it asked for before the next vertex. The
// memory index relies on that, refilling one record per visit.
type graphAccess interface {
	// vertex returns the record of node id with span and members ready.
	vertex(id dn.NodeID) (*vertexRec, error)
	// need makes the edge sections named in sections (sec* bits) readable
	// on v, the record vertex returned last, and returns the record to read
	// them from: v, or on disk a query-local copy of a shared record that
	// lacked them. The disk index decodes them; in memory they are views
	// of the graph's lists. Sections not asked for hold whatever an earlier
	// visit left there.
	need(v *vertexRec, sections uint8) (*vertexRec, error)
	// locate is FindVertex: the run of object o covering tick t. On disk an
	// object without one is a corrupt run directory and an error; in memory
	// it is dn.Invalid.
	locate(o trajectory.ObjectID, t trajectory.Tick) (dn.NodeID, error)
}

// scratch is the pooled per-query working state of every traversal: the
// visited/arrival tables and frontier queues over node IDs, the per
// direction object sets, and the seed/start buffers. Engines hold one
// visit.Pool of these; a query checks one out, resets it (O(1) epoch
// bumps) and returns it, so steady-state evaluation does not allocate.
type scratch struct {
	visits int // vertex fetches, the expansion counter

	fwTicks, bwTicks visit.Ticks // node → best arrival / injection bound
	fwObjs, bwObjs   visit.Set   // objects collected per direction
	objList          []trajectory.ObjectID
	objTicks         visit.Ticks // object → best tick (sweep)
	nodes            visit.Set   // visited nodes (unidirectional sweeps)
	seedNodes        visit.Set   // seed-vertex dedup
	fwQueue, bwQueue visit.Deque[tickItem]
	queue            visit.Deque[dn.NodeID] // unidirectional frontier / stack
	starts           []dn.NodeID
	tickStarts       []tickItem // per-seed-tick starts (sweep)

	cur cursor    // the disk Index's partitions, records and their arena
	mem memAccess // the memory index's one record, views of its graph
}

// newScratchPool returns the per-engine pool of traversal scratch.
func newScratchPool() *visit.Pool[scratch] {
	return visit.NewPool(func() *scratch { return new(scratch) })
}

// reset prepares the scratch for one query over a graph of numNodes
// vertices and numObjects objects. Neither access is touched: each engine
// readies its own (cursor.begin, Mem.begin), so the memory engine's pools
// never allocate the disk cursor's per-node record tables.
func (sc *scratch) reset(numNodes, numObjects int) {
	sc.visits = 0
	sc.fwTicks.Reset(numNodes)
	sc.bwTicks.Reset(numNodes)
	sc.fwObjs.Reset(numObjects)
	sc.bwObjs.Reset(numObjects)
	sc.objList = sc.objList[:0]
	sc.objTicks.Reset(numObjects)
	sc.nodes.Reset(numNodes)
	sc.seedNodes.Reset(numNodes)
	sc.fwQueue.Reset()
	sc.bwQueue.Reset()
	sc.queue.Reset()
	sc.starts = sc.starts[:0]
	sc.tickStarts = sc.tickStarts[:0]
}

// reachFrom is the point query behind both ReachFromCounted methods: the
// seed objects' (deduplicated) runs at iv.Lo against dst's run at iv.Hi.
func reachFrom(ctx context.Context, g graphAccess, sc *scratch, s Strategy, seeds []trajectory.ObjectID,
	dst trajectory.ObjectID, iv contact.Interval, resolutions []int, numTicks int) (bool, error) {

	for _, o := range seeds {
		v, err := g.locate(o, iv.Lo)
		if err != nil {
			return false, err
		}
		if v != dn.Invalid && sc.seedNodes.Visit(int(v)) {
			sc.starts = append(sc.starts, v)
		}
	}
	v2, err := g.locate(dst, iv.Hi)
	if err != nil {
		return false, err
	}
	return traverse(ctx, g, sc, s, sc.starts, v2, iv, resolutions, numTicks)
}

// appendProfile is the profile query behind both AppendProfile methods: it
// enters each seed's run at the seed's tick, sweeps (pruning forward runs
// that done already covers), and drains the per-object ticks into entries
// sorted by object.
func appendProfile(ctx context.Context, g graphAccess, sc *scratch, out []queries.ProfileEntry,
	seeds []queries.SeedState, iv contact.Interval, dir queries.Direction, done *visit.Ticks) ([]queries.ProfileEntry, error) {

	for _, s := range seeds {
		at := iv.Hi
		if dir == queries.Forward {
			if at = max(s.Start, iv.Lo); at > iv.Hi {
				continue
			}
		}
		v, err := g.locate(s.Obj, at)
		if err != nil {
			return out, err
		}
		if v != dn.Invalid {
			sc.tickStarts = append(sc.tickStarts, tickItem{v, at})
		}
	}
	if err := sweep(ctx, g, sc, sc.tickStarts, iv, dir, done); err != nil {
		return out, err
	}
	for _, o := range trajectory.SortDedupObjects(sc.objList) {
		t, _ := sc.objTicks.Get(int(o))
		out = append(out, queries.ProfileEntry{Obj: o, Hops: -1, Arrival: trajectory.Tick(t)})
	}
	return out, nil
}

// traverse runs strategy s from the start vertices (source frontier at
// iv.Lo) toward v2 (destination vertex at iv.Hi). A single-source query
// passes one start; the cross-segment planner passes the whole frontier
// carried over from the previous time slab. numTicks is the graph's time
// domain size, needed to mirror reverse long-edge boundaries. The context
// is observed inside every expansion loop, so a cancelled traversal returns
// ctx.Err() promptly.
func traverse(ctx context.Context, g graphAccess, sc *scratch, s Strategy, starts []dn.NodeID, v2 dn.NodeID,
	iv contact.Interval, resolutions []int, numTicks int) (bool, error) {

	if v2 == dn.Invalid {
		return false, nil
	}
	live := starts[:0]
	for _, v := range starts {
		if v == dn.Invalid {
			continue
		}
		if v == v2 {
			return true, nil
		}
		live = append(live, v)
	}
	if len(live) == 0 {
		return false, nil
	}
	switch s {
	case BMBFS:
		return bidirectional(ctx, g, sc, live, v2, iv, resolutions, numTicks)
	case BBFS:
		return bidirectional(ctx, g, sc, live, v2, iv, nil, numTicks)
	case EBFS:
		return unidirectional(ctx, g, sc, live, v2, iv, false)
	case EDFS:
		return unidirectional(ctx, g, sc, live, v2, iv, true)
	}
	return false, errUnknownStrategy
}

type strategyError string

func (e strategyError) Error() string { return string(e) }

const errUnknownStrategy = strategyError("reachgraph: unknown traversal strategy")

// addAndMeet inserts the members of a visited vertex into own and reports
// whether any of them is already in other (the OF ∩ OB test of Algorithm 2).
func addAndMeet(own, other *visit.Set, members []trajectory.ObjectID) bool {
	meet := false
	for _, o := range members {
		own.Visit(int(o))
		if other.Has(int(o)) {
			meet = true
		}
	}
	return meet
}

// tickItem is a queue entry: a vertex plus its arrival time (forward) or
// injection bound (backward).
type tickItem struct {
	node dn.NodeID
	t    trajectory.Tick
}

// bidirectional implements BM-BFS (resolutions non-nil) and B-BFS
// (resolutions nil), alternating one dequeue per direction like the
// parallel ProcessQueue calls of Algorithm 2. All forward starts are
// injected at iv.Lo: a multi-source frontier behaves exactly like a source
// whose component already spans the seed set.
func bidirectional(ctx context.Context, g graphAccess, sc *scratch, starts []dn.NodeID, v2 dn.NodeID,
	iv contact.Interval, resolutions []int, numTicks int) (bool, error) {

	mid := iv.Lo + trajectory.Tick(iv.Len()/2)
	fw := frontier{queue: &sc.fwQueue, visited: &sc.fwTicks, own: &sc.fwObjs}
	for _, v := range starts {
		fw.queue.PushBack(tickItem{v, iv.Lo})
	}
	bw := frontier{queue: &sc.bwQueue, visited: &sc.bwTicks, own: &sc.bwObjs}
	bw.queue.PushBack(tickItem{v2, iv.Hi})
	for fw.queue.Len() > 0 || bw.queue.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		meet, err := stepForward(g, sc, fw, bw.own, mid, resolutions)
		if err != nil || meet {
			return meet, err
		}
		meet, err = stepBackward(g, sc, bw, fw.own, mid, resolutions, numTicks)
		if err != nil || meet {
			return meet, err
		}
	}
	return false, nil
}

// frontier is one direction's BFS state, views into the query's scratch.
type frontier struct {
	queue   *visit.Deque[tickItem]
	visited *visit.Ticks
	own     *visit.Set
}

// betterForward reports whether arrival a improves on the recorded visit
// (forward wants the earliest arrival).
func (f frontier) betterForward(id dn.NodeID, a trajectory.Tick) bool {
	prev, ok := f.visited.Get(int(id))
	return !ok || int32(a) < prev
}

// betterBackward reports whether bound b improves on the recorded visit
// (backward wants the latest injection bound).
func (f frontier) betterBackward(id dn.NodeID, b trajectory.Tick) bool {
	prev, ok := f.visited.Get(int(id))
	return !ok || int32(b) > prev
}

// stepForward processes one forward queue entry.
func stepForward(g graphAccess, sc *scratch, fw frontier, other *visit.Set, mid trajectory.Tick, resolutions []int) (bool, error) {
	it, ok := fw.queue.PopFront()
	if !ok {
		return false, nil
	}
	if !fw.betterForward(it.node, it.t) {
		return false, nil
	}
	fw.visited.Set(int(it.node), int32(it.t))
	sc.visits++
	v, err := g.vertex(it.node)
	if err != nil {
		return false, err
	}
	if addAndMeet(fw.own, other, v.members) {
		return true, nil
	}
	if v.end >= mid {
		// The vertex spans the meeting point: its members carry the item
		// through mid; no further forward expansion is needed.
		return false, nil
	}
	want := secOut
	if len(resolutions) > 0 {
		want |= secLongOut
	}
	if v, err = g.need(v, want); err != nil {
		return false, err
	}
	// Highest admissible resolution first (§5.2): departure must not
	// precede the arrival time and the hop must not overshoot mid.
	for li := len(resolutions) - 1; li >= 0; li-- {
		L := resolutions[li]
		targets := levelEdgesAt(v.longOut, L)
		if len(targets) == 0 {
			continue
		}
		dep, okB := boundary(v, L)
		if !okB || dep < it.t || dep+trajectory.Tick(L) > mid {
			continue
		}
		arr := dep + trajectory.Tick(L)
		for _, n := range targets {
			if fw.betterForward(n, arr) {
				fw.queue.PushBack(tickItem{n, arr})
			}
		}
		return false, nil
	}
	// Fall back to DN1 edges: depart at the span end, arrive one instant
	// later (always ≤ mid here since v.end < mid).
	arr := v.end + 1
	for _, n := range v.out {
		if fw.betterForward(n, arr) {
			fw.queue.PushBack(tickItem{n, arr})
		}
	}
	return false, nil
}

// stepBackward processes one backward queue entry; the time-mirror of
// stepForward.
func stepBackward(g graphAccess, sc *scratch, bw frontier, other *visit.Set, mid trajectory.Tick,
	resolutions []int, numTicks int) (bool, error) {
	it, ok := bw.queue.PopFront()
	if !ok {
		return false, nil
	}
	if !bw.betterBackward(it.node, it.t) {
		return false, nil
	}
	bw.visited.Set(int(it.node), int32(it.t))
	sc.visits++
	v, err := g.vertex(it.node)
	if err != nil {
		return false, err
	}
	if addAndMeet(bw.own, other, v.members) {
		return true, nil
	}
	if v.start <= mid {
		return false, nil
	}
	want := secIn
	if len(resolutions) > 0 {
		want |= secLongIn
	}
	if v, err = g.need(v, want); err != nil {
		return false, err
	}
	for li := len(resolutions) - 1; li >= 0; li-- {
		L := resolutions[li]
		sources := levelEdgesAt(v.longIn, L)
		if len(sources) == 0 {
			continue
		}
		arr, okB := revBoundaryOf(v, L, numTicks)
		if !okB || arr > it.t || arr-trajectory.Tick(L) < mid {
			continue
		}
		dep := arr - trajectory.Tick(L)
		for _, n := range sources {
			if bw.betterBackward(n, dep) {
				bw.queue.PushBack(tickItem{n, dep})
			}
		}
		return false, nil
	}
	bound := v.start - 1
	for _, n := range v.in {
		if bw.betterBackward(n, bound) {
			bw.queue.PushBack(tickItem{n, bound})
		}
	}
	return false, nil
}

// unidirectional implements E-BFS and E-DFS: expand DN1 edges from v1,
// terminating only when the destination vertex v2 itself is reached. Vertex
// members and long edges are never consulted, matching the baselines of
// §6.2.2. Edge spans grow strictly along DN1 edges, so a vertex starting
// after iv.Hi cannot lead to v2 and is not expanded; that is the only
// pruning the naïve traversals get. The frontier deque doubles as queue
// (E-BFS) and stack (E-DFS).
func unidirectional(ctx context.Context, g graphAccess, sc *scratch, starts []dn.NodeID, v2 dn.NodeID, iv contact.Interval, depthFirst bool) (bool, error) {
	for _, v := range starts {
		if sc.nodes.Visit(int(v)) {
			sc.queue.PushBack(v)
		}
	}
	for sc.queue.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		var cur dn.NodeID
		if depthFirst {
			cur, _ = sc.queue.PopBack()
		} else {
			cur, _ = sc.queue.PopFront()
		}
		if cur == v2 {
			return true, nil
		}
		sc.visits++
		v, err := g.vertex(cur)
		if err != nil {
			return false, err
		}
		if v.start > iv.Hi {
			continue
		}
		if v, err = g.need(v, secOut); err != nil {
			return false, err
		}
		for _, n := range v.out {
			if sc.nodes.Visit(int(n)) {
				sc.queue.PushBack(n)
			}
		}
	}
	return false, nil
}

// sweep is the one set/profile collector: it propagates the item along DN1
// edges from the start vertices, each entered at its own tick, and records
// in sc.objTicks/sc.objList the best tick of every object met. Direction is
// data. Forward, "best" is the earliest arrival: a run is left at its span
// end, its out-neighbours are entered one instant later, and a run that
// outlives iv.Hi is not expanded (its successors start too late to be
// infected). Backward is the exact time-mirror, "best" being the latest
// departure: a run is left at its span start, its in-neighbours are entered
// one instant earlier — the last tick they can still hand carriers on — and
// a run reaching back to iv.Lo is not expanded. Long edges are not
// consulted: a profile must enumerate every reachable run anyway, so the
// base resolution is already optimal. Hop counts are not derivable from the
// run DAG (a run collapses a whole contact component), which is why
// ReachGraph advertises arrival-only semantics.
//
// DN1 edges connect exactly adjacent runs, so a run reached over *any* edge
// path is entered at the one tick its component exchanges carriers with the
// neighbouring instant (span start forward, span end backward); only a
// start vertex may be entered elsewhere in its span. sc.fwTicks is
// therefore an entry-tick table with re-queueing on improvement: a run has
// at most two candidate entry ticks — the edge one and its best start tick
// — so it is expanded at most twice and the sweep stays linear, and since
// successor entries do not depend on the entry tick a re-entry never
// cascades: it only tightens the members' ticks. When all starts share one
// tick on the interval's near edge (every backward sweep, and a forward one
// whose seeds hold from iv.Lo) no successor can be a start run, the table
// degenerates to a visited set and nothing is expanded twice.
//
// Forward, a non-nil done prunes: it holds, per object, a tick the object
// was already expanded from elsewhere — by a shard planner's owner sweep,
// over a network holding every contact of the object — and a run whose
// members all have done ticks at or below its entry tick is visited (its
// read is charged) but neither recorded nor expanded, since everything it
// could pass the item to was reached through those expansions already.
// Backward sweeps ignore done.
func sweep(ctx context.Context, g graphAccess, sc *scratch, starts []tickItem, iv contact.Interval, dir queries.Direction, done *visit.Ticks) error {
	fwd := dir == queries.Forward
	if !fwd {
		done = nil
	}
	better := func(t, prev int32) bool {
		if fwd {
			return t < prev
		}
		return t > prev
	}
	push := func(v dn.NodeID, t trajectory.Tick) {
		if prev, ok := sc.fwTicks.Get(int(v)); ok && !better(int32(t), prev) {
			return
		}
		sc.fwTicks.Set(int(v), int32(t))
		sc.fwQueue.PushBack(tickItem{v, t})
	}
	for _, it := range starts {
		push(it.node, it.t)
	}
	for sc.fwQueue.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		it, _ := sc.fwQueue.PopFront()
		if cur, _ := sc.fwTicks.Get(int(it.node)); cur != int32(it.t) {
			continue // superseded by a better entry before expansion
		}
		sc.visits++
		v, err := g.vertex(it.node)
		if err != nil {
			return err
		}
		if done != nil && expandedBy(done, v.members, it.t) {
			continue
		}
		for _, o := range v.members {
			if prev, ok := sc.objTicks.Get(int(o)); !ok || better(int32(it.t), prev) {
				sc.objTicks.Set(int(o), int32(it.t))
				if !ok {
					sc.objList = append(sc.objList, o)
				}
			}
		}
		// Forward the run is left at its end for its out-neighbours,
		// backward at its start for its in-neighbours; a run spanning the
		// interval's far edge has no neighbour inside it.
		done, section, next := v.end >= iv.Hi, secOut, v.end+1
		if !fwd {
			done, section, next = v.start <= iv.Lo, secIn, v.start-1
		}
		if done {
			continue
		}
		if v, err = g.need(v, section); err != nil {
			return err
		}
		edges := v.out // readable only once need has returned
		if !fwd {
			edges = v.in
		}
		for _, n := range edges {
			push(n, next)
		}
	}
	return nil
}

// expandedBy reports whether done holds a tick at or below t for every
// object of members.
func expandedBy(done *visit.Ticks, members []trajectory.ObjectID, t trajectory.Tick) bool {
	for _, o := range members {
		if d, ok := done.Get(int(o)); !ok || d > int32(t) {
			return false
		}
	}
	return true
}

// boundary mirrors dn.Graph.Boundary on a decoded record: the departure
// time of v's level-L long edges.
func boundary(v *vertexRec, L int) (trajectory.Tick, bool) {
	ta := v.end - v.end%trajectory.Tick(L)
	if ta < v.start {
		return 0, false
	}
	return ta, true
}

// revBoundaryOf mirrors dn.Graph.RevBoundary on a decoded record.
func revBoundaryOf(v *vertexRec, L int, numTicks int) (trajectory.Tick, bool) {
	last := trajectory.Tick(numTicks - 1)
	m := (last - v.start) - (last-v.start)%trajectory.Tick(L)
	tb := last - m
	if tb > v.end {
		return 0, false
	}
	if int(tb) < L {
		return 0, false
	}
	return tb, true
}
