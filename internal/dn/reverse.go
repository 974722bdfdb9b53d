// Reverse long edges.
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

import "streach/internal/trajectory"

// LongIn returns the level-L reverse sources of node id, ascending: nodes u
// such that an item in u's component at RevBoundary(id, L) − L reaches id's
// component at RevBoundary(id, L). Empty when the node has no level-L
// reverse edges.
func (g *Graph) LongIn(id NodeID, L int) []NodeID {
	if li := g.levelIndex(L); li >= 0 {
		return g.revLongs[li].of(int(id))
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
