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
//
// Every adjacency is stored in one form, compressed sparse rows: per-row
// offsets into one array of entries. Run members, DN1 out- and in-edges,
// the runs of each object and every level of long edges in each direction
// are such arrays, so a Node is just its span and the graph holds no
// per-node or per-object slice.
package dn

import (
	"fmt"
	"slices"
	"sort"

	"streach/internal/contact"
	"streach/internal/par"
	"streach/internal/trajectory"
)

// NodeID identifies a node of the reduced graph. Nodes are created in
// ascending Start order, so NodeID order is a topological order of the DAG —
// the property §5.1.3 uses for disk placement.
type NodeID int32

// Invalid is the null NodeID.
const Invalid NodeID = -1

// Node is one run of a connected component: the object set Members(id) was
// a connected component of G_t (and exactly this set) for every t in
// [Start, End].
type Node struct {
	Start, End trajectory.Tick
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

	// members lists each node's objects, ascending.
	members csr[trajectory.ObjectID]
	// out lists each node's DN1 successors (they share a member and start
	// at End+1), ascending; in lists its predecessors in the order the
	// builder met them.
	out, in csr[NodeID]
	// runs lists each object's nodes in ascending span order; spans of
	// consecutive entries are adjacent and together cover [0, NumTicks).
	runs csr[NodeID]

	// Resolutions lists the long-edge levels present, ascending (e.g.
	// [2 4 8 16 32] for the paper's optimal HN = DN1 ∪ DN2 ∪ … ∪ DN32).
	Resolutions []int
	// longs[i] holds the level-Resolutions[i] targets of every node; the
	// departure boundary is Boundary(node, L) and arrival is departure+L.
	longs []csr[NodeID]
	// revLongs[i] holds the level-Resolutions[i] reverse sources of every
	// node, aligned to RevBoundary (see reverse.go).
	revLongs []csr[NodeID]
}

// csr is one adjacency in compressed sparse row form: row i's entries are
// tgt[off[i]:off[i+1]]. A zero csr (a graph literal without the adjacency)
// has no rows and reads as empty lists.
type csr[T any] struct {
	off []int32 // rows+1
	tgt []T
}

// of returns the entries of row i, capped so that appending to them cannot
// overwrite the next row's.
func (c *csr[T]) of(i int) []T {
	if len(c.off) == 0 {
		return nil
	}
	lo, hi := c.off[i], c.off[i+1]
	return c.tgt[lo:hi:hi]
}

// rows returns the number of rows.
func (c *csr[T]) rows() int { return max(len(c.off)-1, 0) }

// push closes a row holding the entries appended since the last one.
func (c *csr[T]) push() { c.off = append(c.off, int32(len(c.tgt))) }

// clone returns an exact-size copy of c.
func (c *csr[T]) clone() csr[T] {
	return csr[T]{off: slices.Clone(c.off), tgt: slices.Clone(c.tgt)}
}

// transpose returns the reverse relation of c as rows rows: row j lists,
// ascending, every row i of c that holds j.
func transpose[U, T ~int32](c *csr[T], rows int) csr[U] {
	t := csr[U]{off: make([]int32, rows+1), tgt: make([]U, len(c.tgt))}
	for _, j := range c.tgt {
		t.off[j+1]++
	}
	for j := 0; j < rows; j++ {
		t.off[j+1] += t.off[j]
	}
	next := slices.Clone(t.off[:rows])
	for i := 0; i < c.rows(); i++ {
		for _, j := range c.of(i) {
			t.tgt[next[j]] = U(i)
			next[j]++
		}
	}
	return t
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
	if t < 0 || int(t) >= g.NumTicks {
		return Invalid
	}
	runs := g.RunsOf(o)
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
	if int(o) < 0 || int(o) >= g.runs.rows() {
		return nil
	}
	return g.runs.of(int(o))
}

// Members returns the objects of node id, ascending.
func (g *Graph) Members(id NodeID) []trajectory.ObjectID { return g.members.of(int(id)) }

// Out returns the DN1 successors of node id, ascending: the runs starting
// at End(id)+1 that share a member with it.
func (g *Graph) Out(id NodeID) []NodeID { return g.out.of(int(id)) }

// In returns the DN1 predecessors of node id: the runs ending at
// Start(id)−1 that share a member with it.
func (g *Graph) In(id NodeID) []NodeID { return g.in.of(int(id)) }

// NumEdges returns the number of DN1 (forward) edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.out.tgt)) }

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
		return g.longs[li].of(int(id))
	}
	return nil
}

// Augment precomputes long edges at the given resolutions, forward and
// reverse. Resolutions must be ascending powers of two starting at 2 (each
// level doubles the previous one, mirroring the paper's DN2 … DN32
// hierarchy). Augment replaces any previously computed levels. Each level
// is composed in parallel, both directions at once and in blocks of nodes,
// and the levels do not depend on the number of workers.
func (g *Graph) Augment(resolutions []int) error { return g.augment(resolutions, par.Workers()) }

// composeGrain is the number of nodes in a block of a level's composition;
// a graph of fewer nodes composes each direction as one block.
const composeGrain = 4096

func (g *Graph) augment(resolutions []int, workers int) error {
	for i, r := range resolutions {
		want := 2 << i
		if r != want {
			return fmt.Errorf("dn: resolutions must be 2,4,8,…; got %v", resolutions)
		}
	}
	g.Resolutions, g.longs, g.revLongs = nil, nil, nil
	composers := make([]*composer, workers)
	blocks := par.Split(len(g.Nodes), composeGrain)
	parts := make([]csr[NodeID], 2*blocks) // forward blocks, then reverse; reused from level to level
	var prev, prevRev *csr[NodeID]
	for _, L := range resolutions {
		par.Blocks(workers, len(parts), func(w, j int) {
			if composers[w] == nil {
				composers[w] = &composer{g: g, mark: make([]uint32, len(g.Nodes))}
			}
			i, back, from := j, false, prev
			if j >= blocks {
				i, back, from = j-blocks, true, prevRev
			}
			lo, hi := i*len(g.Nodes)/blocks, (i+1)*len(g.Nodes)/blocks
			parts[j] = composers[w].level(parts[j], L, back, from, lo, hi)
		}, nil)
		fwd, rev := concat(parts[:blocks]), concat(parts[blocks:])
		g.Resolutions = append(g.Resolutions, L)
		g.longs = append(g.longs, fwd)
		g.revLongs = append(g.revLongs, rev)
		prev, prevRev = &fwd, &rev
	}
	return nil
}

// concat joins the rows of consecutive blocks into one csr.
func concat(parts []csr[NodeID]) csr[NodeID] {
	rows, n := 0, 0
	for i := range parts {
		rows += parts[i].rows()
		n += len(parts[i].tgt)
	}
	out := csr[NodeID]{off: make([]int32, 1, rows+1), tgt: make([]NodeID, 0, n)}
	for i := range parts {
		base := int32(len(out.tgt))
		for _, o := range parts[i].off[1:] {
			out.off = append(out.off, base+o)
		}
		out.tgt = append(out.tgt, parts[i].tgt...)
	}
	return out
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

// level composes the level-L edges of the nodes [lo, hi) as two level-L/2
// hops through prev, or as two DN1 steps when L is 2 (prev nil), and
// returns them as the rows of a csr held in out's storage. Forward, a node
// departs at its Boundary and the hops go forward in time; reverse (back),
// it is reached at its RevBoundary and the hops go backward from there, so
// the targets are the nodes that deliver to it L ticks earlier.
func (c *composer) level(out csr[NodeID], L int, back bool, prev *csr[NodeID], lo, hi int) csr[NodeID] {
	g := c.g
	out.off, out.tgt = append(out.off[:0], make([]int32, hi-lo+1)...), out.tgt[:0]
	h := trajectory.Tick(L / 2)
	if back {
		h = -h
	}
	for id := lo; id < hi; id++ {
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
		out.off[id-lo+1] = int32(len(out.tgt))
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
func (c *composer) hop(v NodeID, level *csr[NodeID], h trajectory.Tick) []NodeID {
	switch {
	case level != nil:
		return level.of(int(v))
	case h < 0:
		return c.g.In(v)
	default:
		return c.g.Out(v)
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
		u, nd := NodeID(id), &g.Nodes[id]
		if nd.Start > nd.End {
			return fmt.Errorf("dn: node %d has inverted span [%d, %d]", id, nd.Start, nd.End)
		}
		if !slices.IsSorted(g.Members(u)) {
			return fmt.Errorf("dn: node %d members unsorted", id)
		}
		for _, v := range g.Out(u) {
			if v <= u {
				return fmt.Errorf("dn: edge %d→%d violates topological ID order", id, v)
			}
			if g.Nodes[v].Start != nd.End+1 {
				return fmt.Errorf("dn: edge %d→%d spans not adjacent", id, v)
			}
			if !shareMember(g.Members(u), g.Members(v)) {
				return fmt.Errorf("dn: edge %d→%d without shared member", id, v)
			}
			if !slices.Contains(g.In(v), u) {
				return fmt.Errorf("dn: edge %d→%d missing from In list", id, v)
			}
		}
		for _, w := range g.In(u) {
			if !slices.Contains(g.Out(w), u) {
				return fmt.Errorf("dn: reverse edge %d→%d missing from Out list", w, id)
			}
		}
	}
	for o := 0; o < g.runs.rows(); o++ {
		expect := trajectory.Tick(0)
		for _, id := range g.RunsOf(trajectory.ObjectID(o)) {
			nd := &g.Nodes[id]
			if nd.Start != expect {
				return fmt.Errorf("dn: object %d runs leave gap before tick %d", o, nd.Start)
			}
			if !containsObject(g.Members(id), trajectory.ObjectID(o)) {
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

func containsObject(s []trajectory.ObjectID, o trajectory.ObjectID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= o })
	return i < len(s) && s[i] == o
}
