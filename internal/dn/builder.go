// Incremental construction (§6.2.1.2): the paper notes that the contact
// network "can be constructed incrementally over time by acquiring the
// objects positions at new time instances and appending corresponding new
// vertices and edges". The run-merged reduction is inherently a time sweep,
// so Builder exposes exactly that: feed the contact pairs of one instant at
// a time and snapshot the graph whenever needed. Build is the batch
// convenience over it.
package dn

import (
	"slices"

	"streach/internal/contact"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// Builder constructs the reduced graph one time instant at a time. A run's
// members and in-edges are known when the run opens, so they are appended
// to growing CSR arrays there; Graph derives the rest.
type Builder struct {
	numObjects int
	numTicks   int
	nodes      []Node
	members    csr[trajectory.ObjectID]
	in         csr[NodeID]

	parent  []int32
	size    []int32
	prevRun []NodeID // each object's run at the last instant

	// The components of the current instant, counting-sorted by group:
	// group gi holds flat[groupEnd[gi-1]:groupEnd[gi]], ascending.
	groupOf    []int32 // per root, valid when its groupEpoch is epoch
	groupEpoch []int64
	epoch      int64
	groupEnd   []int32
	flat       []trajectory.ObjectID
}

// NewBuilder returns a builder for numObjects objects with an empty time
// domain.
func NewBuilder(numObjects int) *Builder {
	b := &Builder{
		numObjects: numObjects,
		members:    csr[trajectory.ObjectID]{off: []int32{0}},
		in:         csr[NodeID]{off: []int32{0}},
		parent:     make([]int32, numObjects),
		size:       make([]int32, numObjects),
		prevRun:    make([]NodeID, numObjects),
		groupOf:    make([]int32, numObjects),
		groupEpoch: make([]int64, numObjects),
		flat:       make([]trajectory.ObjectID, numObjects),
	}
	for i := range b.prevRun {
		b.prevRun[i] = Invalid
	}
	return b
}

// NumTicks returns the number of instants fed so far.
func (b *Builder) NumTicks() int { return b.numTicks }

// AddInstant appends the next time instant, whose contact graph G_t has the
// given edge set. Components unchanged since the previous instant extend
// their run; changed components open new run nodes wired to the runs their
// members came from.
func (b *Builder) AddInstant(pairs []stjoin.Pair) {
	t := trajectory.Tick(b.numTicks)
	b.numTicks++
	n := b.numObjects
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		b.parent[i] = int32(i)
		b.size[i] = 1
	}
	for _, pr := range pairs {
		ra, rb := b.find(int32(pr.A)), b.find(int32(pr.B))
		if ra == rb {
			continue
		}
		if b.size[ra] < b.size[rb] {
			ra, rb = rb, ra
		}
		b.parent[rb] = ra
		b.size[ra] += b.size[rb]
	}
	// Group objects by root in order of first appearance: objects are
	// scanned in ascending ID order, so groups are deterministic. Count
	// each group's size, turn the sizes into starts, and place the objects;
	// each start advances to its group's end.
	b.epoch++
	b.groupEnd = b.groupEnd[:0]
	for o := int32(0); o < int32(n); o++ {
		r := b.find(o)
		if b.groupEpoch[r] != b.epoch {
			b.groupEpoch[r] = b.epoch
			b.groupOf[r] = int32(len(b.groupEnd))
			b.groupEnd = append(b.groupEnd, 0)
		}
		b.groupEnd[b.groupOf[r]]++
	}
	start := int32(0)
	for gi, size := range b.groupEnd {
		b.groupEnd[gi] = start
		start += size
	}
	for o := int32(0); o < int32(n); o++ {
		gi := b.groupOf[b.find(o)]
		b.flat[b.groupEnd[gi]] = trajectory.ObjectID(o)
		b.groupEnd[gi]++
	}
	lo := int32(0)
	for _, hi := range b.groupEnd {
		members := b.flat[lo:hi]
		lo = hi
		r := b.prevRun[members[0]]
		if r != Invalid && len(b.members.of(int(r))) == len(members) && sameRun(b.prevRun, members, r) {
			// The component is unchanged: extend the run.
			b.nodes[r].End = t
			continue
		}
		// New run node, wired to the distinct previous runs of its members.
		id := NodeID(len(b.nodes))
		b.nodes = append(b.nodes, Node{Start: t, End: t})
		b.members.tgt = append(b.members.tgt, members...)
		b.members.push()
		first := len(b.in.tgt)
		for _, m := range members {
			if pr := b.prevRun[m]; pr != Invalid && !slices.Contains(b.in.tgt[first:], pr) {
				b.in.tgt = append(b.in.tgt, pr)
			}
			b.prevRun[m] = id
		}
		b.in.push()
	}
}

// AppendNetwork feeds every instant of net's time domain starting at the
// builder's current tick; net's instants [from, NumTicks) are appended. It
// is the incremental-ingestion entry point: extract contacts for a new
// stretch of trajectory data, then append it.
func (b *Builder) AppendNetwork(net *contact.Network, from trajectory.Tick) {
	if int(from) >= net.NumTicks {
		return
	}
	net.Snapshot(from, trajectory.Tick(net.NumTicks-1), func(_ trajectory.Tick, pairs []stjoin.Pair) bool {
		b.AddInstant(pairs)
		return true
	})
}

// Graph returns the reduced graph over the instants fed so far, as an
// exact-size snapshot that shares nothing with the builder. The builder
// remains usable: more instants can be appended and Graph called again —
// the paper's incremental maintenance — without changing an earlier
// snapshot. Out-edges are the transpose of in-edges and the runs of each
// object the transpose of members, so both come out ascending. The
// snapshot carries no long edges; call Augment on it.
func (b *Builder) Graph() *Graph {
	g := &Graph{
		NumObjects: b.numObjects,
		NumTicks:   b.numTicks,
		Nodes:      slices.Clone(b.nodes),
		members:    b.members.clone(),
		in:         b.in.clone(),
	}
	g.out = transpose[NodeID](&g.in, len(g.Nodes))
	g.runs = transpose[NodeID](&g.members, g.NumObjects)
	return g
}

func (b *Builder) find(x int32) int32 {
	for b.parent[x] != x {
		b.parent[x] = b.parent[b.parent[x]]
		x = b.parent[x]
	}
	return x
}
