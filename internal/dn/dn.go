// Package dn builds the reduced contact-network DAG of §5.1.2 and its
// multi-resolution augmentation of §5.1.2.2.
//
// Reduction (lossless, per Properties 5.1 and 5.2):
//
//  1. Per-instant connected components of the contact graph G_t replace
//     individual object vertices: all members of a component are mutually
//     reachable at that instant (snapshot symmetry).
//  2. Maximal runs of instants over which a component keeps exactly the same
//     member set collapse into a single node carrying a span [Start, End].
//     The span plays the role of the paper's weighted "aggregated edge"
//     e(n): an item entering the group stays within it for the whole run.
//
// The result is a DAG: an edge u→v exists iff the two runs share a member
// and v starts exactly when u ends (Start(v) = End(u)+1). Every object
// belongs to exactly one node at every instant, so reachability over the DAG
// is equivalent to reachability over the full TEN (§5.1.1).
//
// Augmentation precomputes "long edges" at resolutions L = 2, 4, 8, …: a
// level-L edge u→w certifies that an item in u at boundary time ta (the
// unique multiple of L in (End(u)−L, End(u)]) reaches w at ta+L. Levels are
// composed by doubling: a 2L-edge is two aligned L-hops. A node has
// non-self level-L edges only when its span ends within L of the boundary,
// which keeps the index compact. Every level is also built in reverse,
// aligned from the end of the time domain (reverse.go), for the backward
// half of BM-BFS; reverse levels are composed backward on the same graph.
// Each level of each direction is stored in CSR form: per-node offsets into
// one array of targets, ascending per node.
package dn

import (
	"fmt"
	"slices"
	"sort"

	"streach/internal/contact"
	"streach/internal/trajectory"
)

// NodeID identifies a node of the reduced graph. Nodes are created in
// ascending Start order, so NodeID order is a topological order of the DAG —
// the property §5.1.3 uses for disk placement.
type NodeID int32

// Invalid is the null NodeID.
const Invalid NodeID = -1

// Node is one run of a connected component: the object set Members was a
// connected component of G_t (and exactly this set) for every t in
// [Start, End].
type Node struct {
	Start, End trajectory.Tick
	Members    []trajectory.ObjectID // sorted ascending
	Out        []NodeID              // successors: share a member, Start = End+1
	In         []NodeID              // predecessors (reverse graph, stored per §5.1.3)
}

// Span returns the node's validity interval.
func (n *Node) Span() contact.Interval {
	return contact.Interval{Lo: n.Start, Hi: n.End}
}

// Graph is the reduced (and optionally augmented) contact network.
type Graph struct {
	NumObjects int
	NumTicks   int
	Nodes      []Node

	// runsByObject[o] lists the nodes containing object o in ascending
	// span order; spans of consecutive entries are adjacent and together
	// cover [0, NumTicks).
	runsByObject [][]NodeID

	// Resolutions lists the long-edge levels present, ascending (e.g.
	// [2 4 8 16 32] for the paper's optimal HN = DN1 ∪ DN2 ∪ … ∪ DN32).
	Resolutions []int
	// longs[i] holds the level-Resolutions[i] targets of every node; the
	// departure boundary is Boundary(node, L) and arrival is departure+L.
	longs []csr
	// revLongs[i] holds the level-Resolutions[i] reverse sources of every
	// node, aligned to RevBoundary (see reverse.go).
	revLongs []csr
}

// csr is one level of long edges in one direction: node id's edges are
// tgt[off[id]:off[id+1]], ascending.
type csr struct {
	off []int32 // len(Nodes)+1
	tgt []NodeID
}

// of returns the edges of node id, capped so that appending to them cannot
// overwrite the next node's.
func (c *csr) of(id NodeID) []NodeID {
	lo, hi := c.off[id], c.off[id+1]
	return c.tgt[lo:hi:hi]
}

// Build reduces the contact network to its run-merged component DAG. It is
// the batch form of Builder, which additionally supports the paper's
// incremental construction (§6.2.1.2).
func Build(net *contact.Network) *Graph {
	b := NewBuilder(net.NumObjects)
	b.AppendNetwork(net, 0)
	g := b.Graph()
	if g.NumTicks != net.NumTicks {
		// Degenerate domains (no objects) still carry the time extent.
		g.NumTicks = net.NumTicks
	}
	return g
}

// sameRun reports whether run r (with |members| == |Members(r)|) consists of
// exactly the given members, using the invariant that prevRun maps each
// object to its unique run at the previous instant.
func sameRun(prevRun []NodeID, members []trajectory.ObjectID, r NodeID) bool {
	for _, m := range members {
		if prevRun[m] != r {
			return false
		}
	}
	return true
}

// NodeOf returns the node containing object o at tick t, or Invalid when t
// is outside the graph's time domain.
func (g *Graph) NodeOf(o trajectory.ObjectID, t trajectory.Tick) NodeID {
	if int(o) < 0 || int(o) >= len(g.runsByObject) || t < 0 || int(t) >= g.NumTicks {
		return Invalid
	}
	runs := g.runsByObject[o]
	i := sort.Search(len(runs), func(i int) bool {
		return g.Nodes[runs[i]].End >= t
	})
	if i == len(runs) {
		return Invalid
	}
	id := runs[i]
	if g.Nodes[id].Start > t {
		return Invalid
	}
	return id
}

// RunsOf returns the run nodes of object o in span order.
func (g *Graph) RunsOf(o trajectory.ObjectID) []NodeID {
	if int(o) < 0 || int(o) >= len(g.runsByObject) {
		return nil
	}
	return g.runsByObject[o]
}

// NumEdges returns the number of DN1 (forward) edges.
func (g *Graph) NumEdges() int64 {
	var e int64
	for i := range g.Nodes {
		e += int64(len(g.Nodes[i].Out))
	}
	return e
}

// Boundary returns the departure time of node id's long edges at resolution
// L: the unique multiple of L in (End−L, End]. The second return value is
// false when that boundary lies before the node's start or when the arrival
// boundary would fall outside the time domain — in both cases the node has
// no level-L edges.
func (g *Graph) Boundary(id NodeID, L int) (trajectory.Tick, bool) {
	nd := &g.Nodes[id]
	ta := nd.End - nd.End%trajectory.Tick(L)
	if ta < nd.Start {
		return 0, false
	}
	if int(ta)+L >= g.NumTicks {
		return 0, false
	}
	return ta, true
}

// levelIndex returns the index into g.longs for resolution L, or -1.
func (g *Graph) levelIndex(L int) int {
	for i, r := range g.Resolutions {
		if r == L {
			return i
		}
	}
	return -1
}

// LongOut returns the level-L targets of node id, ascending (empty when the
// node has none). The departure time is Boundary(id, L) and the arrival time
// is that plus L.
func (g *Graph) LongOut(id NodeID, L int) []NodeID {
	if li := g.levelIndex(L); li >= 0 {
		return g.longs[li].of(id)
	}
	return nil
}

// Augment precomputes long edges at the given resolutions, forward and
// reverse. Resolutions must be ascending powers of two starting at 2 (each
// level doubles the previous one, mirroring the paper's DN2 … DN32
// hierarchy). Augment replaces any previously computed levels.
func (g *Graph) Augment(resolutions []int) error {
	for i, r := range resolutions {
		want := 2 << i
		if r != want {
			return fmt.Errorf("dn: resolutions must be 2,4,8,…; got %v", resolutions)
		}
	}
	g.Resolutions, g.longs, g.revLongs = nil, nil, nil
	c := composer{g: g, mark: make([]uint32, len(g.Nodes))}
	var prev, prevRev *csr
	for _, L := range resolutions {
		fwd, rev := c.level(L, false, prev), c.level(L, true, prevRev)
		g.Resolutions = append(g.Resolutions, L)
		g.longs = append(g.longs, fwd)
		g.revLongs = append(g.revLongs, rev)
		prev, prevRev = &fwd, &rev
	}
	return nil
}

// composer builds levels of long edges. Its scratch, reused from node to
// node, is an epoch-stamped mark per node that deduplicates the targets of
// the node being composed, and the buffer collecting them.
type composer struct {
	g     *Graph
	mark  []uint32 // mark[v] == epoch: v is the current node or one of its targets
	epoch uint32
	buf   []NodeID
}

// level composes the level-L edges of every node as two level-L/2 hops
// through prev, or as two DN1 steps when L is 2 (prev nil). Forward, a node
// departs at its Boundary and the hops go forward in time; reverse (back),
// it is reached at its RevBoundary and the hops go backward from there, so
// the targets are the nodes that deliver to it L ticks earlier.
func (c *composer) level(L int, back bool, prev *csr) csr {
	g := c.g
	out := csr{off: make([]int32, len(g.Nodes)+1)}
	h := trajectory.Tick(L / 2)
	if back {
		h = -h
	}
	for id := range g.Nodes {
		u := NodeID(id)
		var t trajectory.Tick
		var ok bool
		if back {
			t, ok = g.RevBoundary(u, L)
		} else {
			t, ok = g.Boundary(u, L)
		}
		if ok {
			// Self-reach is expressed by the span, so u is marked from
			// the start and never becomes its own target.
			c.begin(u)
			// The first hop's destinations are distinct already: u alone,
			// or u's edges.
			self := [1]NodeID{u}
			mid := self[:]
			if !c.holds(u, t, h) {
				mid = c.hop(u, prev, h)
			}
			for _, v := range mid {
				if c.holds(v, t+h, h) {
					c.add(v)
					continue
				}
				for _, w := range c.hop(v, prev, h) {
					c.add(w)
				}
			}
			slices.Sort(c.buf)
			out.tgt = append(out.tgt, c.buf...)
		}
		out.off[id+1] = int32(len(out.tgt))
	}
	return out
}

// begin starts collecting the targets of node u.
func (c *composer) begin(u NodeID) {
	c.epoch++
	if c.epoch == 0 { // wrapped: stale marks could collide
		clear(c.mark)
		c.epoch = 1
	}
	c.mark[u] = c.epoch
	c.buf = c.buf[:0]
}

// add collects target w once.
func (c *composer) add(w NodeID) {
	if c.mark[w] != c.epoch {
		c.mark[w] = c.epoch
		c.buf = append(c.buf, w)
	}
}

// holds reports whether node v, holding the item at t, still holds it at
// t+h (h < 0 going backward). Then v itself is where the item is after the
// hop, and none of v's edges is taken. Otherwise v's span ends (starts)
// within the hop, so t is v's boundary at resolution |h| and v's edges in
// the previous level are exactly the hop.
func (c *composer) holds(v NodeID, t, h trajectory.Tick) bool {
	if h < 0 {
		return c.g.Nodes[v].Start <= t+h
	}
	return c.g.Nodes[v].End >= t+h
}

// hop returns v's edges in level, or its DN1 edges in the direction of
// travel (h < 0 going backward) when level is nil.
func (c *composer) hop(v NodeID, level *csr, h trajectory.Tick) []NodeID {
	switch {
	case level != nil:
		return level.of(v)
	case h < 0:
		return c.g.Nodes[v].In
	default:
		return c.g.Nodes[v].Out
	}
}

// Stats summarizes graph size, the quantities of Figure 10 and §6.2.1.1.
type Stats struct {
	Vertices  int64
	Edges     int64   // DN1 edges
	LongEdges []int64 // per resolution, aligned with Resolutions
}

// Stats returns size statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Vertices: int64(len(g.Nodes)), Edges: g.NumEdges()}
	for i := range g.longs {
		s.LongEdges = append(s.LongEdges, int64(len(g.longs[i].tgt)))
	}
	return s
}

// AvgDegree returns the Table 4 metric for resolution L: the mean number of
// level-L edges over the nodes that have at least one, and the number of
// such nodes.
func (g *Graph) AvgDegree(L int) (avg float64, nodes int) {
	li := g.levelIndex(L)
	if li < 0 {
		return 0, 0
	}
	off := g.longs[li].off
	for id := range g.Nodes {
		if off[id+1] > off[id] {
			nodes++
		}
	}
	if nodes == 0 {
		return 0, 0
	}
	return float64(len(g.longs[li].tgt)) / float64(nodes), nodes
}

// Validate checks structural invariants; index builders and tests call it.
// It verifies that nodes are topologically ordered by ID, spans tile each
// object's timeline, edges connect adjacent runs sharing members, and In/Out
// are mutually consistent.
func (g *Graph) Validate() error {
	for id := range g.Nodes {
		nd := &g.Nodes[id]
		if nd.Start > nd.End {
			return fmt.Errorf("dn: node %d has inverted span [%d, %d]", id, nd.Start, nd.End)
		}
		if !sort.SliceIsSorted(nd.Members, func(i, k int) bool { return nd.Members[i] < nd.Members[k] }) {
			return fmt.Errorf("dn: node %d members unsorted", id)
		}
		for _, v := range nd.Out {
			if v <= NodeID(id) {
				return fmt.Errorf("dn: edge %d→%d violates topological ID order", id, v)
			}
			if g.Nodes[v].Start != nd.End+1 {
				return fmt.Errorf("dn: edge %d→%d spans not adjacent", id, v)
			}
			if !shareMember(nd.Members, g.Nodes[v].Members) {
				return fmt.Errorf("dn: edge %d→%d without shared member", id, v)
			}
			if !containsNode(g.Nodes[v].In, NodeID(id)) {
				return fmt.Errorf("dn: edge %d→%d missing from In list", id, v)
			}
		}
		for _, u := range nd.In {
			if !containsNode(g.Nodes[u].Out, NodeID(id)) {
				return fmt.Errorf("dn: reverse edge %d→%d missing from Out list", u, id)
			}
		}
	}
	for o, runs := range g.runsByObject {
		expect := trajectory.Tick(0)
		for _, id := range runs {
			nd := &g.Nodes[id]
			if nd.Start != expect {
				return fmt.Errorf("dn: object %d runs leave gap before tick %d", o, nd.Start)
			}
			if !containsObject(nd.Members, trajectory.ObjectID(o)) {
				return fmt.Errorf("dn: object %d not a member of its run %d", o, id)
			}
			expect = nd.End + 1
		}
		if g.NumTicks > 0 && int(expect) != g.NumTicks {
			return fmt.Errorf("dn: object %d runs end at %d, want %d", o, expect, g.NumTicks)
		}
	}
	return nil
}

func shareMember(a, b []trajectory.ObjectID) bool {
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		switch {
		case a[i] == b[k]:
			return true
		case a[i] < b[k]:
			i++
		default:
			k++
		}
	}
	return false
}

func containsNode(s []NodeID, v NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsObject(s []trajectory.ObjectID, o trajectory.ObjectID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= o })
	return i < len(s) && s[i] == o
}
