// Reverse long edges and the reference backward walk.
//
// BM-BFS (§5.2) traverses HN backward from the query destination. For the
// backward sweep to take long edges with the same completeness guarantee as
// the forward sweep, the long edges must be aligned to boundaries counted
// from the *end* of the time domain: a reverse level-L edge u ⇐ w certifies
// that an item present in u's component at time tb−L is in w's component at
// tb, where tb is w's reverse boundary. Augment composes them exactly as it
// composes forward edges, with time running backward: In edges for Out,
// span starts for span ends, RevBoundary for Boundary.
package dn

import (
	"sort"

	"streach/internal/contact"
	"streach/internal/trajectory"
)

// LongIn returns the level-L reverse sources of node id, ascending: nodes u
// such that an item in u's component at RevBoundary(id, L) − L reaches id's
// component at RevBoundary(id, L). Empty when the node has no level-L
// reverse edges.
func (g *Graph) LongIn(id NodeID, L int) []NodeID {
	if li := g.levelIndex(L); li >= 0 {
		return g.revLongs[li].of(id)
	}
	return nil
}

// RevBoundary returns the arrival time of node id's reverse level-L edges:
// the unique instant tb in [Start, Start+L) with NumTicks−1−tb a multiple of
// L. The second return value is false when tb lies after the node's end or
// when the departure tb−L would fall before the time domain — the node then
// has no level-L reverse edges.
func (g *Graph) RevBoundary(id NodeID, L int) (trajectory.Tick, bool) {
	nd := &g.Nodes[id]
	last := trajectory.Tick(g.NumTicks - 1)
	m := (last - nd.Start) - (last-nd.Start)%trajectory.Tick(L)
	tb := last - m
	if tb > nd.End {
		return 0, false
	}
	if int(tb) < L {
		return 0, false
	}
	return tb, true
}

// ReverseReach is the backward propagation primitive over the reduced
// graph: walking DN1 in-edges in reverse time order from the runs of the
// seed objects at iv.Hi, it returns every object that, holding an item at
// iv.Lo, delivers it to some seed by iv.Hi (the deliverer set; seeds
// included when the interval overlaps the time domain), sorted ascending.
// An in-edge u ← v means u is the adjacent run ending at Start(v)−1 that
// shares a member with v, so any member of u holding the item within u's
// span hands it to v's component, and by induction to a seed. A run
// starting at or before iv.Lo is not expanded further — its predecessors
// end before the interval.
//
// ReverseReach allocates its own scratch per call (it is the reference
// implementation; the reachgraph engines run the same walk on pooled,
// epoch-stamped state).
func (g *Graph) ReverseReach(seeds []trajectory.ObjectID, iv contact.Interval) []trajectory.ObjectID {
	iv = iv.Intersect(contact.Interval{Lo: 0, Hi: trajectory.Tick(g.NumTicks - 1)})
	if iv.Len() == 0 {
		return nil
	}
	visited := make([]bool, len(g.Nodes))
	var queue []NodeID
	for _, o := range seeds {
		id := g.NodeOf(o, iv.Hi)
		if id == Invalid || visited[id] {
			continue
		}
		visited[id] = true
		queue = append(queue, id)
	}
	delivers := make(map[trajectory.ObjectID]bool)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		nd := &g.Nodes[id]
		for _, m := range nd.Members {
			delivers[m] = true
		}
		if nd.Start <= iv.Lo {
			continue
		}
		for _, u := range nd.In {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
	}
	out := make([]trajectory.ObjectID, 0, len(delivers))
	for o := range delivers {
		out = append(out, o)
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}
