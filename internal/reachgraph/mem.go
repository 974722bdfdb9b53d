// Memory-resident ReachGraph evaluation (§6.4, Table 5a).
//
// The same traversal strategies run directly on the in-memory dn.Graph,
// with no page store and no I/O accounting. This is the configuration the
// paper uses to compare ReachGraph against GRAIL on memory-resident contact
// datasets, and it also provides the CPU-time measurements of Figure 15.
//
// Record views are materialized eagerly and every piece of traversal state
// comes from the pooled scratch, so steady-state point queries perform
// zero heap allocations (asserted by TestHotpathSteadyStateAllocs at the
// module root).
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

// Mem is a memory-resident ReachGraph over a reduced graph. Record views
// are materialized eagerly at construction, so queries never mutate shared
// state and the engine is safe for fully parallel evaluation.
type Mem struct {
	g           *dn.Graph
	resolutions []int
	recs        []vertexRec // record views, indexed by NodeID

	pool *visit.Pool[scratch]
}

// NewMem wraps g for in-memory query evaluation. g must carry bidirectional
// long edges when BM-BFS will be used; NewMem computes them at the given
// resolutions if absent (pass nil resolutions for a DN1-only graph serving
// B-BFS/E-BFS/E-DFS).
func NewMem(g *dn.Graph, resolutions []int) (*Mem, error) {
	if resolutions != nil && (!sameResolutions(g.Resolutions, resolutions) || !g.HasReverseLongs()) {
		if err := g.AugmentBidirectional(resolutions); err != nil {
			return nil, err
		}
	}
	m := &Mem{
		g:           g,
		resolutions: resolutions,
		recs:        make([]vertexRec, len(g.Nodes)),
		pool:        newScratchPool(),
	}
	for id := range g.Nodes {
		m.materialize(dn.NodeID(id))
	}
	return m, nil
}

// materialize builds the record view of node id at construction time.
func (m *Mem) materialize(id dn.NodeID) {
	nd := &m.g.Nodes[id]
	rec := vertexRec{
		id:      id,
		start:   nd.Start,
		end:     nd.End,
		members: nd.Members,
		out:     plainEdges(nd.Out),
		in:      plainEdges(nd.In),
	}
	for _, L := range m.resolutions {
		if ts := m.g.LongOut(id, L); len(ts) > 0 {
			rec.longOut = append(rec.longOut, levelEdges{level: L, edges: plainEdges(ts)})
		}
		if ss := m.g.LongIn(id, L); len(ss) > 0 {
			rec.longIn = append(rec.longIn, levelEdges{level: L, edges: plainEdges(ss)})
		}
	}
	m.recs[id] = rec
}

// vertex returns the record view of node id. Partition hints are
// meaningless in memory and ignored.
func (m *Mem) vertex(id dn.NodeID, _ int32) (*vertexRec, error) {
	if id < 0 || int(id) >= len(m.recs) {
		return nil, fmt.Errorf("reachgraph: no vertex %d", id)
	}
	return &m.recs[id], nil
}

// need has nothing to do: record views are materialized whole.
func (m *Mem) need(*vertexRec, uint8) error { return nil }

func plainEdges(ids []dn.NodeID) []edge {
	if len(ids) == 0 {
		return nil
	}
	out := make([]edge, len(ids))
	for i, v := range ids {
		out[i] = edge{node: v, part: -1}
	}
	return out
}

// Reach answers q with BM-BFS.
func (m *Mem) Reach(q queries.Query) (bool, error) { return m.ReachStrategy(q, BMBFS) }

// ReachStrategy answers q with the chosen strategy.
func (m *Mem) ReachStrategy(q queries.Query, s Strategy) (bool, error) {
	ok, _, err := m.ReachStrategyCounted(context.Background(), q, s)
	return ok, err
}

// clampInterval intersects iv with the graph's time domain.
func (m *Mem) clampInterval(iv contact.Interval) contact.Interval {
	return iv.Intersect(contact.Interval{Lo: 0, Hi: trajectory.Tick(m.g.NumTicks - 1)})
}

// ReachStrategyCounted is ReachStrategy plus the number of vertex visits.
// The context is observed inside the expansion loops.
func (m *Mem) ReachStrategyCounted(ctx context.Context, q queries.Query, s Strategy) (bool, int, error) {
	if int(q.Src) < 0 || int(q.Src) >= m.g.NumObjects ||
		int(q.Dst) < 0 || int(q.Dst) >= m.g.NumObjects {
		return false, 0, fmt.Errorf("reachgraph: query objects outside [0, %d)", m.g.NumObjects)
	}
	if q.Src == q.Dst && m.clampInterval(q.Interval).Len() > 0 {
		return true, 0, nil
	}
	return m.ReachFromCounted(ctx, []trajectory.ObjectID{q.Src}, q.Dst, q.Interval, s)
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
	ok, err := reachFrom(ctx, m, sc, s, seeds, dst, iv, res, m.g.NumTicks)
	return ok, sc.visits, err
}

// AppendProfile appends to out the propagation profile of the seed frontier
// over iv in direction dir; see Index.AppendProfile.
func (m *Mem) AppendProfile(ctx context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv contact.Interval, dir queries.Direction) ([]queries.ProfileEntry, int, error) {
	iv = m.clampInterval(iv)
	if iv.Len() == 0 {
		return out, 0, nil
	}
	sc := m.begin()
	defer m.pool.Put(sc)
	out, err := appendProfile(ctx, m, sc, out, seeds, iv, dir)
	return out, sc.visits, err
}

// begin checks a traversal scratch out of the pool, reset for one query;
// the caller returns it with m.pool.Put.
func (m *Mem) begin() *scratch {
	sc := m.pool.Get()
	sc.reset(len(m.g.Nodes), m.g.NumObjects)
	return sc
}

// locate maps object o to its run at tick t; an object without one has
// dn.Invalid there.
func (m *Mem) locate(o trajectory.ObjectID, t trajectory.Tick) (entry, error) {
	if int(o) < 0 || int(o) >= m.g.NumObjects {
		return entry{dn.Invalid, -1}, fmt.Errorf("reachgraph: object %d outside [0, %d)", o, m.g.NumObjects)
	}
	return entry{m.g.NodeOf(o, t), -1}, nil
}
