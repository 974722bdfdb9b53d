package dn

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"streach/internal/contact"
	"streach/internal/testgen"
	"streach/internal/trajectory"
)

// allResolutions is the paper's HN = DN1 ∪ DN2 ∪ … ∪ DN32; a graph is
// augmented at a prefix of it.
var allResolutions = []int{2, 4, 8, 16, 32}

// bruteHop returns, ascending, the nodes other than u that an item in u at
// tick t is in after steps DN1 steps forward — or, backward, the nodes that
// hold an item steps ticks before t which u holds at t. It steps one tick
// at a time and composes nothing, so it is the ground truth for long edges.
func bruteHop(g *Graph, u NodeID, t trajectory.Tick, steps int, back bool) []NodeID {
	cur := map[NodeID]bool{u: true}
	for s := 0; s < steps; s++ {
		next := map[NodeID]bool{}
		for v := range cur {
			nd := &g.Nodes[v]
			switch {
			case !back && nd.End > t, back && nd.Start < t:
				next[v] = true // the span goes on
			case back:
				for _, w := range g.In(v) {
					next[w] = true
				}
			default:
				for _, w := range g.Out(v) {
					next[w] = true
				}
			}
		}
		cur = next
		if back {
			t--
		} else {
			t++
		}
	}
	delete(cur, u) // self-reach is expressed by the span
	out := make([]NodeID, 0, len(cur))
	for v := range cur {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// checkLongEdges holds every long edge of g to brute force, in both
// directions: LongOut(u, L) is exactly bruteHop forward from Boundary(u, L)
// and LongIn(w, L) exactly bruteHop backward from RevBoundary(w, L), each
// strictly ascending and empty where the node has no boundary.
func checkLongEdges(t testing.TB, name string, g *Graph) {
	t.Helper()
	for _, L := range g.Resolutions {
		for id := range g.Nodes {
			u := NodeID(id)
			for _, dir := range []struct {
				what     string
				back     bool
				boundary func(NodeID, int) (trajectory.Tick, bool)
				edges    func(NodeID, int) []NodeID
			}{
				{"LongOut", false, g.Boundary, g.LongOut},
				{"LongIn", true, g.RevBoundary, g.LongIn},
			} {
				got := dir.edges(u, L)
				at, ok := dir.boundary(u, L)
				if !ok {
					if len(got) != 0 {
						t.Fatalf("%s: node %d has %s %v at L=%d without a boundary", name, u, dir.what, got, L)
					}
					continue
				}
				if want := bruteHop(g, u, at, L, dir.back); !slices.Equal(got, want) {
					t.Fatalf("%s: node %d %s at L=%d from tick %d = %v, stepping gives %v", name, u, dir.what, L, at, got, want)
				}
				for i := 1; i < len(got); i++ {
					if got[i-1] >= got[i] {
						t.Fatalf("%s: node %d %s at L=%d not strictly ascending: %v", name, u, dir.what, L, got)
					}
				}
			}
		}
	}
}

// checkReaugment augments g at the first levels resolutions, then again at
// the first keep < levels of them, holding both directions to brute force
// each time. The second Augment must replace the first in both directions:
// the levels it drops are gone from LongOut and LongIn alike.
func checkReaugment(t testing.TB, name string, g *Graph, levels, keep int) {
	t.Helper()
	for _, k := range []int{levels, keep} {
		if err := g.Augment(allResolutions[:k]); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g.Resolutions, allResolutions[:k]) {
			t.Fatalf("%s: Resolutions = %v after Augment(%v)", name, g.Resolutions, allResolutions[:k])
		}
		checkLongEdges(t, name, g)
	}
	for _, L := range allResolutions[keep:levels] {
		for id := range g.Nodes {
			if out, in := g.LongOut(NodeID(id), L), g.LongIn(NodeID(id), L); out != nil || in != nil {
				t.Fatalf("%s: node %d keeps dropped level %d: out %v, in %v", name, id, L, out, in)
			}
		}
	}
}

// The fuzz bounds: any input is a network of 1–12 objects over 1–80 ticks
// with at most 256 contacts (testgen's Network).
const (
	fuzzMaxObjects  = 12
	fuzzMaxTicks    = 80
	fuzzMaxContacts = 256
)

// bruteForceNetworks are TestLongEdgesMatchBruteForce's networks, 0–56
// contacts each within the fuzz bounds.
func bruteForceNetworks() []*contact.Network {
	nets := make([]*contact.Network, 15)
	for i := range nets {
		nets[i] = testgen.New(testgen.Random(int64(21+i), 2+16*i)).Network(fuzzMaxObjects, fuzzMaxTicks, fuzzMaxContacts)
	}
	return nets
}

// FuzzLongEdges holds generated networks' long edges, both directions and
// every prefix of the paper's resolutions, to brute-force DN1 stepping, and
// re-augmenting at fewer levels to replacing both directions. The input is
// a byte b (levels b%6 of the resolutions, then keep b/6 % (levels+1))
// and a network (testgen's Network). It is seeded with the networks of
// TestLongEdgesMatchBruteForce and the 12-object, 80-tick corner of
// TestReverseLongEdgesSound's.
func FuzzLongEdges(f *testing.F) {
	levels3keep1 := byte(3 + (len(allResolutions)+1)*1)
	for _, net := range bruteForceNetworks() {
		f.Add(append([]byte{levels3keep1}, testgen.EncodeNetwork(net)...))
	}
	var corner []contact.Contact
	rwp := testgen.Spec{Objects: 25, Ticks: 120, Seed: 107}.Network()
	for _, c := range rwp.Window(0, fuzzMaxTicks-1).Contacts {
		if c.A < fuzzMaxObjects && c.B < fuzzMaxObjects {
			corner = append(corner, c)
		}
	}
	f.Add(append([]byte{levels3keep1}, testgen.EncodeNetwork(contact.FromContacts(fuzzMaxObjects, fuzzMaxTicks, corner))...))
	f.Fuzz(longEdgesVsDN1)
}

// TestLongEdgesSeeded runs the fuzz body over 2000 seeded inputs.
func TestLongEdgesSeeded(t *testing.T) {
	testgen.Seeded(t, 20261017, 2000, longEdgesVsDN1)
}

func longEdgesVsDN1(t *testing.T, data []byte) {
	src := testgen.New(data)
	b := int(src.Byte())
	levels := b % (len(allResolutions) + 1)
	keep := b / (len(allResolutions) + 1) % (levels + 1)
	checkReaugment(t, "fuzz", validGraph(t, src.Network(fuzzMaxObjects, fuzzMaxTicks, fuzzMaxContacts)), levels, keep)
}

func TestLongEdgesMatchBruteForce(t *testing.T) {
	for trial, net := range bruteForceNetworks() {
		g := Build(net)
		if err := g.Augment([]int{2, 4, 8}); err != nil {
			t.Fatal(err)
		}
		checkLongEdges(t, fmt.Sprintf("trial %d", trial), g)
	}
}

// TestReverseLongEdgesSound verifies every reverse level-L edge u ⇐ w
// against brute force: an item in u's component at RevBoundary(w)−L must
// reach w's component at RevBoundary(w), and the edge set must be complete
// (every such u is listed). The forward edges are checked with them.
func TestReverseLongEdgesSound(t *testing.T) {
	g := validGraph(t, testgen.Spec{Objects: 25, Ticks: 120, Seed: 107}.Network())
	if err := g.Augment([]int{2, 4, 8}); err != nil {
		t.Fatal(err)
	}
	checkLongEdges(t, "rwp 25×120", g)
}

// TestBuildIndependentOfWorkers holds Augment to one set of long edges,
// forward and reverse, whatever the number of workers composing a level's
// blocks of nodes: over random-waypoint and clustered graphs of several
// blocks, a graph of one block per direction, and a graph with no nodes.
func TestBuildIndependentOfWorkers(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *contact.Network
	}{
		{"rwp", testgen.Spec{Objects: 300, Ticks: 500, Seed: 8}.Network()},
		{"clustered", testgen.Spec{Clustered: true, Objects: 256, Ticks: 400, Seed: 9}.Network()},
		{"one-block", testgen.Spec{Objects: 30, Ticks: 60, Seed: 10}.Network()},
		{"empty", contact.FromContacts(0, 0, nil)},
	} {
		want := Build(c.net)
		if err := want.augment(allResolutions, 1); err != nil {
			t.Fatal(err)
		}
		if c.name == "rwp" && len(want.Nodes) < 4*composeGrain {
			t.Fatalf("%s: %d nodes make fewer than four blocks", c.name, len(want.Nodes))
		}
		for _, w := range []int{2, 3, 8} {
			got := Build(c.net)
			if err := got.augment(allResolutions, w); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.longs, want.longs) || !reflect.DeepEqual(got.revLongs, want.revLongs) ||
				!slices.Equal(got.Resolutions, want.Resolutions) {
				t.Errorf("%s: %d workers compose other long edges than 1", c.name, w)
			}
		}
	}
}
