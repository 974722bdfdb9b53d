// Package grail reimplements GRAIL (Yildirim, Chaoji, Zaki; PVLDB 2010),
// the graph-reachability baseline of §6.4: randomized interval labelling
// with label-pruned DFS. The paper runs GRAIL on the reduced contact
// network DN, both memory-resident (Table 5a, runtime) and adapted to disk
// with vertices placed in generation order (Table 5b, I/O count).
//
// Labelling. For each of d passes, a depth-first traversal over the DAG —
// visiting roots and children in random order — assigns post-order ranks.
// The label of v in pass i is the interval [s_i(v), r_i(v)], where r_i is
// v's rank and s_i is the minimum rank in v's DFS subtree. If u reaches v,
// every label of u contains the corresponding label of v; the converse does
// not hold, so containment is a necessary condition used to prune a DFS.
package grail

import (
	"errors"
	"fmt"
	"math/rand"

	"streach/internal/dn"
)

// Labels is a d-pass GRAIL labelling of a DAG.
type Labels struct {
	d      int
	lo, hi [][]int32 // [pass][vertex]
}

// D returns the number of label passes.
func (l *Labels) D() int { return l.d }

// BuildLabels computes d random interval labellings of g's DN1 DAG.
func BuildLabels(g *dn.Graph, d int, seed int64) (*Labels, error) {
	if d < 1 {
		return nil, errors.New("grail: need at least one labelling pass")
	}
	n := len(g.Nodes)
	l := &Labels{d: d, lo: make([][]int32, d), hi: make([][]int32, d)}
	rng := rand.New(rand.NewSource(seed))

	roots := make([]dn.NodeID, 0, 64)
	for id := range g.Nodes {
		if len(g.In(dn.NodeID(id))) == 0 {
			roots = append(roots, dn.NodeID(id))
		}
	}
	order := make([]dn.NodeID, len(roots))
	children := make([]dn.NodeID, 0, 16)
	// Vertex states: 0 unvisited, 1 expanded (exit frame pending), 2 ranked.
	state := make([]uint8, n)

	type frame struct {
		id    dn.NodeID
		enter bool
	}

	for pass := 0; pass < d; pass++ {
		lo := make([]int32, n)
		hi := make([]int32, n)
		for i := range state {
			state[i] = 0
		}
		copy(order, roots)
		rng.Shuffle(len(order), func(i, k int) { order[i], order[k] = order[k], order[i] })

		var rank int32 = 1
		stack := make([]frame, 0, 256)
		for _, r := range order {
			stack = append(stack[:0], frame{r, true})
			for len(stack) > 0 {
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !f.enter {
					// Post-visit: all children are ranked (their exit
					// frames were pushed above this one).
					hi[f.id] = rank
					lo[f.id] = rank
					rank++
					state[f.id] = 2
					for _, c := range g.Out(f.id) {
						if lo[c] < lo[f.id] {
							lo[f.id] = lo[c]
						}
					}
					continue
				}
				if state[f.id] != 0 {
					continue
				}
				state[f.id] = 1
				stack = append(stack, frame{f.id, false})
				children = append(children[:0], g.Out(f.id)...)
				rng.Shuffle(len(children), func(i, k int) {
					children[i], children[k] = children[k], children[i]
				})
				for _, c := range children {
					if state[c] == 0 {
						stack = append(stack, frame{c, true})
					}
				}
			}
		}
		l.lo[pass] = lo
		l.hi[pass] = hi
	}
	return l, nil
}

// MayReach reports whether the labels admit a path u → v: every label of u
// contains the corresponding label of v. False means definitely
// unreachable.
func (l *Labels) MayReach(u, v dn.NodeID) bool {
	for i := 0; i < l.d; i++ {
		if l.lo[i][v] < l.lo[i][u] || l.hi[i][v] > l.hi[i][u] {
			return false
		}
	}
	return true
}

// Contains exposes one pass's containment test (for property tests).
func (l *Labels) Contains(pass int, u, v dn.NodeID) bool {
	return l.lo[pass][v] >= l.lo[pass][u] && l.hi[pass][v] <= l.hi[pass][u]
}

// Label returns the pass-i interval of v.
func (l *Labels) Label(pass int, v dn.NodeID) (lo, hi int32) {
	return l.lo[pass][v], l.hi[pass][v]
}

// Validate checks the labelling invariants: every vertex is ranked and
// every edge u→v satisfies containment.
func (l *Labels) Validate(g *dn.Graph) error {
	for pass := 0; pass < l.d; pass++ {
		for id := range g.Nodes {
			if l.hi[pass][id] <= 0 {
				return fmt.Errorf("grail: pass %d left vertex %d unranked", pass, id)
			}
			for _, c := range g.Out(dn.NodeID(id)) {
				if !l.Contains(pass, dn.NodeID(id), c) {
					return fmt.Errorf("grail: pass %d edge %d→%d violates containment", pass, id, c)
				}
			}
		}
	}
	return nil
}
