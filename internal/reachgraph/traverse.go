// Traversal strategies over HN (§5.2, §6.2.2).
//
// BM-BFS is the paper's contribution: a bidirectional BFS where the forward
// sweep covers [t1, mid] and the backward sweep covers [mid, t2]
// (mid = (t1+t2)/2), taking long edges at the highest admissible resolution
// in both directions. The query is answered positively as soon as the
// forward and backward object sets intersect: an object that holds the item
// by mid and can still deliver it to the destination after mid (Theorem 5.3
// and Property 5.2).
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
//   - Backward: the exact time-mirror, using the reverse long edges of
//     dn.AugmentBidirectional, whose boundaries are aligned from the end of
//     the time domain.
//
// B-BFS is BM-BFS restricted to resolution DN1; E-BFS and E-DFS are
// unidirectional traversals that ignore vertex members and long edges and
// terminate only on reaching the destination vertex itself (the naïve
// baselines of Figure 13).
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
// graph (Table 5a). Implementations are passed by pointer, so boxing them
// into the interface costs nothing on the hot path.
type graphAccess interface {
	// vertex returns the record of node id with span and members ready.
	vertex(id dn.NodeID, part int32) (*vertexRec, error)
	// need makes the edge sections named in sections (sec* bits) readable
	// on v, a record vertex returned during this query. The disk index
	// decodes them on demand; in memory they always are.
	need(v *vertexRec, sections uint8) error
}

// entry is a traversal starting point: a vertex and the partition hint that
// locates it (ignored by memory access).
type entry struct {
	node dn.NodeID
	part int32
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
	objTicks         visit.Ticks // object → earliest arrival (arrival sweeps)
	nodes            visit.Set   // visited nodes (unidirectional sweeps)
	seedNodes        visit.Set   // seed-vertex dedup
	fwQueue, bwQueue visit.Deque[tickItem]
	queue            visit.Deque[entry] // unidirectional frontier / stack
	starts           []entry
	tickStarts       []tickItem // per-seed-tick starts (ticked sweeps)

	cur cursor // disk-side partitions, records and their arena; unused by Mem
}

// newScratchPool returns the per-engine pool of traversal scratch.
func newScratchPool() *visit.Pool[scratch] {
	return visit.NewPool(func() *scratch { return new(scratch) })
}

// reset prepares the scratch for one query over a graph of numNodes
// vertices and numObjects objects. The disk cursor is not touched: only
// the disk index resets (and pays for) it, so the memory engine's pools
// never materialize the per-node record tables.
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

// traverse runs strategy s from the start vertices (source frontier at
// iv.Lo) toward v2 (destination vertex at iv.Hi). A single-source query
// passes one start; the cross-segment planner passes the whole frontier
// carried over from the previous time slab. numTicks is the graph's time
// domain size, needed to mirror reverse long-edge boundaries. The context
// is observed inside every expansion loop, so a cancelled traversal returns
// ctx.Err() promptly.
func traverse(ctx context.Context, g graphAccess, sc *scratch, s Strategy, starts []entry, v2 entry,
	iv contact.Interval, resolutions []int, numTicks int) (bool, error) {

	if v2.node == dn.Invalid {
		return false, nil
	}
	live := starts[:0]
	for _, e := range starts {
		if e.node == dn.Invalid {
			continue
		}
		if e.node == v2.node {
			return true, nil
		}
		live = append(live, e)
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
	e entry
	t trajectory.Tick
}

// bidirectional implements BM-BFS (resolutions non-nil) and B-BFS
// (resolutions nil), alternating one dequeue per direction like the
// parallel ProcessQueue calls of Algorithm 2. All forward starts are
// injected at iv.Lo: a multi-source frontier behaves exactly like a source
// whose component already spans the seed set.
func bidirectional(ctx context.Context, g graphAccess, sc *scratch, starts []entry, v2 entry,
	iv contact.Interval, resolutions []int, numTicks int) (bool, error) {

	mid := iv.Lo + trajectory.Tick(iv.Len()/2)
	fw := frontier{queue: &sc.fwQueue, visited: &sc.fwTicks, own: &sc.fwObjs}
	for _, e := range starts {
		fw.queue.PushBack(tickItem{e, iv.Lo})
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
	if !fw.betterForward(it.e.node, it.t) {
		return false, nil
	}
	fw.visited.Set(int(it.e.node), int32(it.t))
	sc.visits++
	v, err := g.vertex(it.e.node, it.e.part)
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
	if err := g.need(v, want); err != nil {
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
		for _, e := range targets {
			if fw.betterForward(e.node, arr) {
				fw.queue.PushBack(tickItem{entry{e.node, e.part}, arr})
			}
		}
		return false, nil
	}
	// Fall back to DN1 edges: depart at the span end, arrive one instant
	// later (always ≤ mid here since v.end < mid).
	arr := v.end + 1
	for _, e := range v.out {
		if fw.betterForward(e.node, arr) {
			fw.queue.PushBack(tickItem{entry{e.node, e.part}, arr})
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
	if !bw.betterBackward(it.e.node, it.t) {
		return false, nil
	}
	bw.visited.Set(int(it.e.node), int32(it.t))
	sc.visits++
	v, err := g.vertex(it.e.node, it.e.part)
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
	if err := g.need(v, want); err != nil {
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
		for _, e := range sources {
			if bw.betterBackward(e.node, dep) {
				bw.queue.PushBack(tickItem{entry{e.node, e.part}, dep})
			}
		}
		return false, nil
	}
	bound := v.start - 1
	for _, e := range v.in {
		if bw.betterBackward(e.node, bound) {
			bw.queue.PushBack(tickItem{entry{e.node, e.part}, bound})
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
func unidirectional(ctx context.Context, g graphAccess, sc *scratch, starts []entry, v2 entry, iv contact.Interval, depthFirst bool) (bool, error) {
	for _, e := range starts {
		if sc.nodes.Visit(int(e.node)) {
			sc.queue.PushBack(e)
		}
	}
	for sc.queue.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		var cur entry
		if depthFirst {
			cur, _ = sc.queue.PopBack()
		} else {
			cur, _ = sc.queue.PopFront()
		}
		if cur.node == v2.node {
			return true, nil
		}
		sc.visits++
		v, err := g.vertex(cur.node, cur.part)
		if err != nil {
			return false, err
		}
		if v.start > iv.Hi {
			continue
		}
		if err := g.need(v, secOut); err != nil {
			return false, err
		}
		for _, e := range v.out {
			if sc.nodes.Visit(int(e.node)) {
				sc.queue.PushBack(entry{e.node, e.part})
			}
		}
	}
	return false, nil
}

// collectForward sweeps DN1 edges forward from the start vertices and
// records every object holding the item by iv.Hi in sc.fwObjs/sc.objList —
// the native reachable-set primitive behind ReachableSetFromCounted and the
// cross-segment frontier planner. Long edges are not consulted: a set query
// must enumerate every reachable run anyway, so the base resolution is
// already optimal. The entry invariant is that every queued vertex is
// reached with an arrival time inside its span and ≤ iv.Hi, so all of its
// members hold the item; successors depart at span end and arrive one
// instant later, which keeps the invariant because DN1 edges connect
// exactly adjacent runs.
func collectForward(ctx context.Context, g graphAccess, sc *scratch, starts []entry, iv contact.Interval) error {
	for _, e := range starts {
		if e.node == dn.Invalid {
			continue
		}
		if sc.nodes.Visit(int(e.node)) {
			sc.queue.PushBack(e)
		}
	}
	for sc.queue.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur, _ := sc.queue.PopFront()
		sc.visits++
		v, err := g.vertex(cur.node, cur.part)
		if err != nil {
			return err
		}
		for _, o := range v.members {
			if sc.fwObjs.Visit(int(o)) {
				sc.objList = append(sc.objList, o)
			}
		}
		if v.end >= iv.Hi {
			// The run outlives the interval: its successors start after
			// iv.Hi and cannot be infected in time.
			continue
		}
		if err := g.need(v, secOut); err != nil {
			return err
		}
		for _, e := range v.out {
			if sc.nodes.Visit(int(e.node)) {
				sc.queue.PushBack(entry{e.node, e.part})
			}
		}
	}
	return nil
}

// arrivalCollect is collectForward tracking earliest arrivals: it sweeps
// DN1 edges forward from the start vertices and records, for every object
// reachable by iv.Hi, the earliest tick it holds the item, in
// sc.objTicks/sc.objList. DN1 edges connect exactly adjacent runs, so a
// run reached over *any* path is entered at its span start (the one tick
// its component inherits carriers from the previous instant); only seed
// runs are entered later, at iv.Lo. Every visited run therefore has a
// single fixed arrival tick — a plain visited set suffices, no
// re-queueing on improvement — and an object's earliest arrival is the
// minimum arrival over the visited runs that contain it. Hop counts are
// not derivable from the run DAG (a run collapses a whole contact
// component), which is why ReachGraph advertises arrival-only semantics.
func arrivalCollect(ctx context.Context, g graphAccess, sc *scratch, starts []entry, iv contact.Interval) error {
	for _, e := range starts {
		if e.node == dn.Invalid {
			continue
		}
		if sc.nodes.Visit(int(e.node)) {
			sc.fwQueue.PushBack(tickItem{e, iv.Lo})
		}
	}
	for sc.fwQueue.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		it, _ := sc.fwQueue.PopFront()
		sc.visits++
		v, err := g.vertex(it.e.node, it.e.part)
		if err != nil {
			return err
		}
		for _, o := range v.members {
			if prev, ok := sc.objTicks.Get(int(o)); !ok || int32(it.t) < prev {
				sc.objTicks.Set(int(o), int32(it.t))
				if !ok {
					sc.objList = append(sc.objList, o)
				}
			}
		}
		if v.end >= iv.Hi {
			// The run outlives the interval: its successors start after
			// iv.Hi and cannot be infected in time.
			continue
		}
		if err := g.need(v, secOut); err != nil {
			return err
		}
		arr := v.end + 1 // successors are adjacent runs covering this tick
		for _, e := range v.out {
			if sc.nodes.Visit(int(e.node)) {
				sc.fwQueue.PushBack(tickItem{entry{e.node, e.part}, arr})
			}
		}
	}
	return nil
}

// arrivalCollectTicked is arrivalCollect for frontiers whose seeds
// activate at their own ticks — the scatter-gather shard planner hands a
// whole round of boundary discoveries to an owner shard as one sweep, each
// seed entering at its best-known arrival. The plain-visited-set argument
// of arrivalCollect no longer holds: a run seeded mid-span can also be
// entered at its span start through an edge from an earlier seed's
// propagation, so the visited set becomes an entry-tick table (sc.fwTicks)
// with re-queueing on improvement. Each run still has at most two
// candidate entry ticks — its span start (identical over every edge path)
// and its minimal seed activation — so a run is expanded at most twice and
// the sweep stays linear. Successor entries are span starts either way,
// which is why a re-entry never cascades: it only tightens the members'
// arrivals.
func arrivalCollectTicked(ctx context.Context, g graphAccess, sc *scratch, starts []tickItem, iv contact.Interval) error {
	push := func(e entry, t trajectory.Tick) {
		if prev, ok := sc.fwTicks.Get(int(e.node)); ok && prev <= int32(t) {
			return
		}
		sc.fwTicks.Set(int(e.node), int32(t))
		sc.fwQueue.PushBack(tickItem{e, t})
	}
	for _, it := range starts {
		if it.e.node != dn.Invalid {
			push(it.e, it.t)
		}
	}
	for sc.fwQueue.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		it, _ := sc.fwQueue.PopFront()
		if cur, _ := sc.fwTicks.Get(int(it.e.node)); cur != int32(it.t) {
			continue // superseded by an earlier entry before expansion
		}
		sc.visits++
		v, err := g.vertex(it.e.node, it.e.part)
		if err != nil {
			return err
		}
		for _, o := range v.members {
			if prev, ok := sc.objTicks.Get(int(o)); !ok || int32(it.t) < prev {
				sc.objTicks.Set(int(o), int32(it.t))
				if !ok {
					sc.objList = append(sc.objList, o)
				}
			}
		}
		if v.end >= iv.Hi {
			// The run outlives the interval: its successors start after
			// iv.Hi and cannot be infected in time.
			continue
		}
		if err := g.need(v, secOut); err != nil {
			return err
		}
		arr := v.end + 1 // successors are adjacent runs covering this tick
		for _, e := range v.out {
			push(entry{e.node, e.part}, arr)
		}
	}
	return nil
}

// collectBackward is the time-mirror of collectForward: it sweeps DN1 edges
// backward from the start vertices (the seed runs at iv.Hi) and records in
// sc.bwObjs/sc.objList every object that, holding the item at iv.Lo, delivers
// it to a seed by iv.Hi — the native reverse-set primitive behind
// AppendReverseSetFromCounted and the backward cross-segment plan. The entry
// invariant mirrors the forward one: every visited run has a hand-over tick
// inside its span and inside iv, so any member holding the item then infects
// the run's whole component — including the member a DN1 in-edge shares with
// the next run, which carries the item forward, by induction up to a seed.
// Predecessors are adjacent runs ending at span start − 1, so a run starting
// at or before iv.Lo is not expanded further: its predecessors end before
// the interval and cannot pick the item up in time.
func collectBackward(ctx context.Context, g graphAccess, sc *scratch, starts []entry, iv contact.Interval) error {
	for _, e := range starts {
		if e.node == dn.Invalid {
			continue
		}
		if sc.nodes.Visit(int(e.node)) {
			sc.queue.PushBack(e)
		}
	}
	for sc.queue.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur, _ := sc.queue.PopFront()
		sc.visits++
		v, err := g.vertex(cur.node, cur.part)
		if err != nil {
			return err
		}
		for _, o := range v.members {
			if sc.bwObjs.Visit(int(o)) {
				sc.objList = append(sc.objList, o)
			}
		}
		if v.start <= iv.Lo {
			// The run reaches back to the interval start: its predecessors
			// end before iv.Lo and cannot pick the item up in time.
			continue
		}
		if err := g.need(v, secIn); err != nil {
			return err
		}
		for _, e := range v.in {
			if sc.nodes.Visit(int(e.node)) {
				sc.queue.PushBack(entry{e.node, e.part})
			}
		}
	}
	return nil
}

// departureCollect is collectBackward tracking latest departures: for every
// deliverer it records, in sc.objTicks/sc.objList, the last tick at which the
// object can still pick the item up and have it reach a seed by iv.Hi. DN1
// in-edges come from exactly adjacent runs, so a non-seed run reached over
// *any* backward path is departed at its span end (the one tick its
// component can hand carriers to the next instant); only seed runs depart
// later, at iv.Hi. Every visited run therefore has a single fixed departure
// tick — a plain visited set suffices, no re-queueing on improvement — and
// an object's latest departure is the maximum over the visited runs that
// contain it, mirroring arrivalCollect's earliest-arrival argument.
func departureCollect(ctx context.Context, g graphAccess, sc *scratch, starts []entry, iv contact.Interval) error {
	for _, e := range starts {
		if e.node == dn.Invalid {
			continue
		}
		if sc.nodes.Visit(int(e.node)) {
			sc.bwQueue.PushBack(tickItem{e, iv.Hi})
		}
	}
	for sc.bwQueue.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		it, _ := sc.bwQueue.PopFront()
		sc.visits++
		v, err := g.vertex(it.e.node, it.e.part)
		if err != nil {
			return err
		}
		for _, o := range v.members {
			if prev, ok := sc.objTicks.Get(int(o)); !ok || int32(it.t) > prev {
				sc.objTicks.Set(int(o), int32(it.t))
				if !ok {
					sc.objList = append(sc.objList, o)
				}
			}
		}
		if v.start <= iv.Lo {
			continue
		}
		if err := g.need(v, secIn); err != nil {
			return err
		}
		dep := v.start - 1 // predecessors are adjacent runs ending this tick
		for _, e := range v.in {
			if sc.nodes.Visit(int(e.node)) {
				sc.bwQueue.PushBack(tickItem{entry{e.node, e.part}, dep})
			}
		}
	}
	return nil
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
