// Memory-resident ReachGraph evaluation (§6.4, Table 5a).
//
// The same traversal strategies run directly on the in-memory dn.Graph,
// with no page store and no I/O accounting. This is the configuration the
// paper uses to compare ReachGraph against GRAIL on memory-resident contact
// datasets, and it also provides the CPU-time measurements of Figure 15.
//
// Mem holds nothing but the graph. A query's record is one scratch-owned
// vertexRec, refilled at every visit (memAccess): its members and edge
// lists are views of the graph's CSR arrays (Members, Out, In, LongOut,
// LongIn), its long-edge levels a buffer reused from visit to visit, so
// there is no second copy of the graph and no build phase beyond
// augmentation. Every piece of traversal state comes from the
// pooled scratch, so steady-state point queries perform zero heap
// allocations (asserted by TestHotpathSteadyStateAllocs at the module
// root).
package reachgraph

import (
	"context"
	"fmt"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/queries"
	"streach/internal/trajectory"
	"streach/internal/visit"
)

// Mem is a memory-resident ReachGraph over a reduced graph. Queries only
// read the graph, so the engine is safe for fully parallel evaluation.
type Mem struct {
	g           *dn.Graph
	resolutions []int

	pool *visit.Pool[scratch]
}

// NewMem wraps g for in-memory query evaluation. BM-BFS needs long edges;
// NewMem computes them at the given resolutions if g carries others (pass
// nil resolutions for a DN1-only graph serving B-BFS/E-BFS/E-DFS).
func NewMem(g *dn.Graph, resolutions []int) (*Mem, error) {
	if resolutions != nil && !sameResolutions(g.Resolutions, resolutions) {
		if err := g.Augment(resolutions); err != nil {
			return nil, err
		}
	}
	return &Mem{g: g, resolutions: resolutions, pool: newScratchPool()}, nil
}

// memAccess is Mem's graphAccess for one query: the one record the
// traversal holds, whose slices are views of the graph.
type memAccess struct {
	m   *Mem
	rec vertexRec
}

// vertex points the record at node id: header fields only. Partition hints
// are meaningless in memory and ignored.
func (a *memAccess) vertex(id dn.NodeID, _ int32) (*vertexRec, error) {
	g := a.m.g
	if id < 0 || int(id) >= len(g.Nodes) {
		return nil, fmt.Errorf("reachgraph: no vertex %d", id)
	}
	nd, r := &g.Nodes[id], &a.rec
	r.id, r.start, r.end, r.members = id, nd.Start, nd.End, g.Members(id)
	return r, nil
}

// need points the sections asked for at the graph's lists of v's node.
func (a *memAccess) need(v *vertexRec, want uint8) (*vertexRec, error) {
	g, id := a.m.g, v.id
	if want&secOut != 0 {
		v.out = edgeList{nodes: g.Out(id)}
	}
	if want&secIn != 0 {
		v.in = edgeList{nodes: g.In(id)}
	}
	if want&secLongOut != 0 {
		v.longOut = v.longOut[:0]
		for _, L := range a.m.resolutions {
			if ts := g.LongOut(id, L); len(ts) > 0 {
				v.longOut = append(v.longOut, levelEdges{level: L, edges: edgeList{nodes: ts}})
			}
		}
	}
	if want&secLongIn != 0 {
		v.longIn = v.longIn[:0]
		for _, L := range a.m.resolutions {
			if ss := g.LongIn(id, L); len(ss) > 0 {
				v.longIn = append(v.longIn, levelEdges{level: L, edges: edgeList{nodes: ss}})
			}
		}
	}
	return v, nil
}

// locate maps object o to its run at tick t; an object without one has
// dn.Invalid there.
func (a *memAccess) locate(o trajectory.ObjectID, t trajectory.Tick) (entry, error) {
	g := a.m.g
	if int(o) < 0 || int(o) >= g.NumObjects {
		return entry{dn.Invalid, -1}, fmt.Errorf("reachgraph: object %d outside [0, %d)", o, g.NumObjects)
	}
	return entry{g.NodeOf(o, t), -1}, nil
}

// clampInterval intersects iv with the graph's time domain.
func (m *Mem) clampInterval(iv contact.Interval) contact.Interval {
	return iv.Intersect(contact.Interval{Lo: 0, Hi: trajectory.Tick(m.g.NumTicks - 1)})
}

// ReachFromCounted is the multi-source point query over the in-memory
// graph; see Index.ReachFromCounted.
func (m *Mem) ReachFromCounted(ctx context.Context, seeds []trajectory.ObjectID, dst trajectory.ObjectID, iv contact.Interval, s Strategy) (bool, int, error) {
	if int(dst) < 0 || int(dst) >= m.g.NumObjects {
		return false, 0, fmt.Errorf("reachgraph: destination %d outside [0, %d)", dst, m.g.NumObjects)
	}
	iv = m.clampInterval(iv)
	if iv.Len() == 0 {
		return false, 0, nil
	}
	for _, o := range seeds {
		if o == dst {
			return true, 0, nil
		}
	}
	sc := m.begin()
	defer m.pool.Put(sc)
	res := m.resolutions
	if s == BBFS || s == EBFS || s == EDFS {
		res = nil
	}
	ok, err := reachFrom(ctx, &sc.mem, sc, s, seeds, dst, iv, res, m.g.NumTicks)
	return ok, sc.visits, err
}

// AppendProfile appends to out the propagation profile of the seed frontier
// over iv in direction dir, pruned by done; see Index.AppendProfile.
func (m *Mem) AppendProfile(ctx context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv contact.Interval, dir queries.Direction, done *visit.Ticks) ([]queries.ProfileEntry, int, error) {
	iv = m.clampInterval(iv)
	if iv.Len() == 0 {
		return out, 0, nil
	}
	sc := m.begin()
	defer m.pool.Put(sc)
	out, err := appendProfile(ctx, &sc.mem, sc, out, seeds, iv, dir, done)
	return out, sc.visits, err
}

// begin checks a traversal scratch out of the pool, reset for one query
// over this graph; the caller returns it with m.pool.Put.
func (m *Mem) begin() *scratch {
	sc := m.pool.Get()
	sc.reset(len(m.g.Nodes), m.g.NumObjects)
	sc.mem.m = m
	return sc
}
