package dn

import (
	"testing"

	"streach/internal/contact"
	"streach/internal/mobility"
	"streach/internal/trajectory"
)

func rwpNetwork(objects, ticks int, seed int64) *contact.Network {
	return contact.Extract(mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: objects, NumTicks: ticks, Seed: seed}))
}

func randomGraph(t testing.TB, objects, ticks int, seed int64) *Graph {
	t.Helper()
	g := Build(rwpNetwork(objects, ticks, seed))
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	return g
}

// TestRevBoundaryAlgebra pins the reverse boundary definition: it is the
// unique instant in [Start, Start+L) whose distance from the last tick is a
// multiple of L.
func TestRevBoundaryAlgebra(t *testing.T) {
	g := randomGraph(t, 20, 100, 109)
	last := trajectory.Tick(g.NumTicks - 1)
	for _, L := range []int{2, 4, 8, 16} {
		for id := range g.Nodes {
			tb, ok := g.RevBoundary(NodeID(id), L)
			nd := &g.Nodes[id]
			if !ok {
				// Must be rejected for a reason: boundary after span end
				// or departure before the time domain.
				m := (last - nd.Start) - (last-nd.Start)%trajectory.Tick(L)
				cand := last - m
				if cand <= nd.End && int(cand) >= L {
					t.Fatalf("node %d L=%d: boundary %d wrongly rejected", id, L, cand)
				}
				continue
			}
			if tb < nd.Start || tb >= nd.Start+trajectory.Tick(L) {
				t.Fatalf("node %d L=%d: boundary %d outside [%d, %d)", id, L, tb, nd.Start, nd.Start+trajectory.Tick(L))
			}
			if (last-tb)%trajectory.Tick(L) != 0 {
				t.Fatalf("node %d L=%d: boundary %d not aligned from the end", id, L, tb)
			}
			if int(tb) < L {
				t.Fatalf("node %d L=%d: departure %d before time domain", id, L, int(tb)-L)
			}
		}
	}
}

// TestAugmentBidirectionalResetOnReaugment ensures re-augmenting replaces
// old levels in both directions: Augment always builds forward and reverse
// edges, so the levels a second call drops are gone from both and the
// levels it keeps are rebuilt in both.
func TestAugmentBidirectionalResetOnReaugment(t *testing.T) {
	g := randomGraph(t, 15, 80, 113)
	checkReaugment(t, "rwp 15×80", g, 2, 1)
	reverse := 0
	for id := range g.Nodes {
		reverse += len(g.LongIn(NodeID(id), 2))
	}
	if reverse == 0 {
		t.Fatal("no reverse level-2 edges after re-augmenting")
	}
}
