// Incremental construction (§6.2.1.2): the paper notes that the contact
// network "can be constructed incrementally over time by acquiring the
// objects positions at new time instances and appending corresponding new
// vertices and edges". The run-merged reduction is inherently a time sweep,
// so Builder exposes exactly that: feed the contact pairs of one instant at
// a time and snapshot the graph whenever needed. Build is the batch
// convenience over it.
package dn

import (
	"streach/internal/contact"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// Builder constructs the reduced graph one time instant at a time.
type Builder struct {
	g *Graph

	parent  []int32
	size    []int32
	prevRun []NodeID

	groupOf    []int32
	groupEpoch []int64
	epoch      int64
	groups     [][]trajectory.ObjectID
	groupRoots []int32
	srcSet     []NodeID
}

// NewBuilder returns a builder for numObjects objects with an empty time
// domain.
func NewBuilder(numObjects int) *Builder {
	b := &Builder{
		g: &Graph{
			NumObjects:   numObjects,
			runsByObject: make([][]NodeID, numObjects),
		},
		parent:     make([]int32, numObjects),
		size:       make([]int32, numObjects),
		prevRun:    make([]NodeID, numObjects),
		groupOf:    make([]int32, numObjects),
		groupEpoch: make([]int64, numObjects),
		srcSet:     make([]NodeID, 0, 8),
	}
	for i := range b.prevRun {
		b.prevRun[i] = Invalid
	}
	return b
}

// NumTicks returns the number of instants fed so far.
func (b *Builder) NumTicks() int { return b.g.NumTicks }

// AddInstant appends the next time instant, whose contact graph G_t has the
// given edge set. Components unchanged since the previous instant extend
// their run; changed components open new run nodes wired to the runs their
// members came from.
func (b *Builder) AddInstant(pairs []stjoin.Pair) {
	g := b.g
	t := trajectory.Tick(g.NumTicks)
	g.NumTicks++
	n := g.NumObjects
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
	// scanned in ascending ID order, so groups are deterministic. A group
	// slot keeps the member array an extended run left in it at the last
	// instant; a slot whose array a node took holds nil.
	b.epoch++
	b.groups = b.groups[:0]
	b.groupRoots = b.groupRoots[:0]
	for o := int32(0); o < int32(n); o++ {
		r := b.find(o)
		if b.groupEpoch[r] != b.epoch {
			b.groupEpoch[r] = b.epoch
			gi := len(b.groups)
			b.groupOf[r] = int32(gi)
			if gi < cap(b.groups) {
				b.groups = b.groups[:gi+1]
				b.groups[gi] = b.groups[gi][:0]
			} else {
				b.groups = append(b.groups, nil)
			}
			b.groupRoots = append(b.groupRoots, r)
		}
		gi := b.groupOf[r]
		b.groups[gi] = append(b.groups[gi], trajectory.ObjectID(o))
	}
	for gi := range b.groups {
		members := b.groups[gi]
		r := b.prevRun[members[0]]
		if r != Invalid && len(g.Nodes[r].Members) == len(members) && sameRun(b.prevRun, members, r) {
			// The component is unchanged: extend the run.
			g.Nodes[r].End = t
			continue // the member array stays in its slot for reuse
		}
		// New run node, wired to the distinct previous runs of its members.
		id := NodeID(len(g.Nodes))
		node := Node{Start: t, End: t, Members: members}
		b.srcSet = b.srcSet[:0]
		for _, m := range members {
			pr := b.prevRun[m]
			if pr == Invalid {
				continue
			}
			dup := false
			for _, s := range b.srcSet {
				if s == pr {
					dup = true
					break
				}
			}
			if !dup {
				b.srcSet = append(b.srcSet, pr)
			}
		}
		g.Nodes = append(g.Nodes, node)
		for _, s := range b.srcSet {
			g.Nodes[s].Out = append(g.Nodes[s].Out, id)
			g.Nodes[id].In = append(g.Nodes[id].In, s)
		}
		for _, m := range members {
			b.prevRun[m] = id
			g.runsByObject[m] = append(g.runsByObject[m], id)
		}
		b.groups[gi] = nil // member slice now owned by the node
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

// Graph finalizes and returns the reduced graph over the instants fed so
// far. The builder remains usable: more instants can be appended and Graph
// called again — the paper's incremental maintenance. Long edges are not
// carried over; call Augment on the result.
func (b *Builder) Graph() *Graph {
	// The returned graph aliases the builder's state; callers appending
	// more instants will see the same underlying nodes extended, which is
	// exactly the incremental contract. Resolutions are invalidated.
	b.g.Resolutions = nil
	b.g.longs = nil
	b.g.revLongs = nil
	return b.g
}

func (b *Builder) find(x int32) int32 {
	for b.parent[x] != x {
		b.parent[x] = b.parent[b.parent[x]]
		x = b.parent[x]
	}
	return x
}
