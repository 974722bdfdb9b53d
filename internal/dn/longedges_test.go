package dn

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streach/internal/contact"
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
				for _, w := range nd.In {
					next[w] = true
				}
			default:
				for _, w := range nd.Out {
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

// The fuzz input: objects−1, ticks−1, levels + 6·keep, then one contact per
// four bytes (a, b, first tick, further ticks). Every byte is taken modulo
// its range, so any input is a network of 1–12 objects over 1–80 ticks.
const (
	fuzzMaxObjects  = 12
	fuzzMaxTicks    = 80
	fuzzMaxContacts = 256
)

// fuzzNetwork derives a contact network and two resolution-prefix lengths,
// levels ≥ keep, from fuzz bytes.
func fuzzNetwork(data []byte) (net *contact.Network, levels, keep int) {
	for len(data) < 3 {
		data = append(data, 0)
	}
	objects := 1 + int(data[0])%fuzzMaxObjects
	ticks := 1 + int(data[1])%fuzzMaxTicks
	levels = int(data[2]) % (len(allResolutions) + 1)
	keep = int(data[2]) / (len(allResolutions) + 1) % (levels + 1)
	var cs []contact.Contact
	for rest := data[3:]; len(rest) >= 4 && len(cs) < fuzzMaxContacts; rest = rest[4:] {
		lo := int(rest[2]) % ticks
		hi := lo + int(rest[3])%(ticks-lo)
		cs = append(cs, contact.Contact{
			A:        trajectory.ObjectID(int(rest[0]) % objects),
			B:        trajectory.ObjectID(int(rest[1]) % objects),
			Validity: contact.Interval{Lo: trajectory.Tick(lo), Hi: trajectory.Tick(hi)},
		})
	}
	return contact.FromContacts(objects, ticks, cs), levels, keep
}

// fuzzBytes is the inverse of fuzzNetwork for a network within its ranges.
func fuzzBytes(net *contact.Network, levels, keep int) []byte {
	data := []byte{byte(net.NumObjects - 1), byte(net.NumTicks - 1), byte(levels + (len(allResolutions)+1)*keep)}
	for _, c := range net.Contacts {
		data = append(data, byte(c.A), byte(c.B), byte(c.Validity.Lo), byte(c.Validity.Hi-c.Validity.Lo))
	}
	return data
}

// bruteForceNetworks are TestLongEdgesMatchBruteForce's random networks.
func bruteForceNetworks() []*contact.Network {
	rng := rand.New(rand.NewSource(21))
	nets := make([]*contact.Network, 15)
	for i := range nets {
		nets[i] = randomNetwork(rng, 2+rng.Intn(10), 20+rng.Intn(30), rng.Intn(60))
	}
	return nets
}

// FuzzLongEdges holds generated networks' long edges, both directions and
// every prefix of the paper's resolutions, to brute-force DN1 stepping, and
// re-augmenting at fewer levels to replacing both directions. It is seeded
// with the networks of TestLongEdgesMatchBruteForce and the 12-object,
// 80-tick corner of TestReverseLongEdgesSound's.
func FuzzLongEdges(f *testing.F) {
	for _, net := range bruteForceNetworks() {
		f.Add(fuzzBytes(net, 3, 1))
	}
	var corner []contact.Contact
	for _, c := range rwpNetwork(25, 120, 107).Window(0, fuzzMaxTicks-1).Contacts {
		if c.A < fuzzMaxObjects && c.B < fuzzMaxObjects {
			corner = append(corner, c)
		}
	}
	f.Add(fuzzBytes(contact.FromContacts(fuzzMaxObjects, fuzzMaxTicks, corner), 3, 1))
	f.Fuzz(longEdgesVsDN1)
}

// TestLongEdgesSeeded is FuzzLongEdges' body over inputs drawn from a
// fixed seed: 2000 cases, 200 under -short. An input is the header and up
// to fuzzMaxContacts contact records of random bytes.
func TestLongEdgesSeeded(t *testing.T) {
	cases := 2000
	if testing.Short() {
		cases = 200
	}
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < cases; i++ {
		data := make([]byte, 3+4*rng.Intn(fuzzMaxContacts+1))
		rng.Read(data)
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("case %d: longEdgesVsDN1(%v)", i, data)
				}
			}()
			longEdgesVsDN1(t, data)
		}()
	}
}

func longEdgesVsDN1(t *testing.T, data []byte) {
	net, levels, keep := fuzzNetwork(data)
	g := Build(net)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	checkReaugment(t, "fuzz", g, levels, keep)
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
	g := randomGraph(t, 25, 120, 107)
	if err := g.Augment([]int{2, 4, 8}); err != nil {
		t.Fatal(err)
	}
	checkLongEdges(t, "rwp 25×120", g)
}
