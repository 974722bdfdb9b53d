package dn

import (
	"math/rand"
	"testing"

	"streach/internal/contact"
	"streach/internal/mobility"
	"streach/internal/trajectory"
)

// figure1Network reproduces the paper's Figure 1 contact pattern with
// objects renumbered to 0-based indices (o1..o4 → 0..3).
func figure1Network() *contact.Network {
	return contact.FromContacts(4, 4, []contact.Contact{
		{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 0}}, // c1
		{A: 1, B: 3, Validity: contact.Interval{Lo: 1, Hi: 1}}, // c2
		{A: 2, B: 3, Validity: contact.Interval{Lo: 1, Hi: 2}}, // c3
		{A: 0, B: 1, Validity: contact.Interval{Lo: 2, Hi: 3}}, // c4
	})
}

func TestBuildFigure1(t *testing.T) {
	g := Build(figure1Network())
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// After both reduction steps the paper's example has 9 run nodes
	// (Figure 5: c0..c9 with c5 merged into c7).
	if len(g.Nodes) != 9 {
		t.Fatalf("nodes = %d, want 9", len(g.Nodes))
	}
	// The merged {o1, o2} run spans [2, 3].
	merged := g.NodeOf(0, 2)
	if merged == Invalid {
		t.Fatal("no node for object 0 at tick 2")
	}
	nd := g.Nodes[merged]
	if nd.Start != 2 || nd.End != 3 || len(nd.Members) != 2 {
		t.Fatalf("merged run = %+v", nd)
	}
	if g.NodeOf(1, 3) != merged {
		t.Error("object 1 at tick 3 should share the merged run")
	}
	// Figure 1 discussion: o4 (idx 3) is reachable from o1 (idx 0) during
	// [0,1] via {0,1}@0 → {1,2,3}@1, but not vice versa.
	src := g.NodeOf(0, 0)
	big := g.NodeOf(3, 1)
	found := false
	for _, v := range g.Nodes[src].Out {
		if v == big {
			found = true
		}
	}
	if !found {
		t.Error("missing edge {0,1}@0 → {1,2,3}@1")
	}
	back := g.NodeOf(3, 0) // {3}@[0,0]
	for _, v := range g.Nodes[back].Out {
		if v != big {
			t.Errorf("unexpected edge from {3}@0 to node %d", v)
		}
	}
	if containsObject(g.Nodes[big].Members, 0) {
		t.Error("{1,2,3}@1 must not contain object 0")
	}
}

func TestBuildEmpty(t *testing.T) {
	g := Build(contact.FromContacts(0, 0, nil))
	if len(g.Nodes) != 0 {
		t.Fatal("empty network produced nodes")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NodeOf(0, 0) != Invalid {
		t.Error("NodeOf on empty graph should be Invalid")
	}
}

func TestBuildNoContacts(t *testing.T) {
	// 3 objects, 5 ticks, no contacts: one singleton run per object.
	g := Build(contact.FromContacts(3, 5, nil))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(g.Nodes))
	}
	for _, nd := range g.Nodes {
		if nd.Start != 0 || nd.End != 4 || len(nd.Members) != 1 {
			t.Fatalf("singleton run = %+v", nd)
		}
		if len(nd.Out) != 0 || len(nd.In) != 0 {
			t.Fatal("no edges expected")
		}
	}
}

func randomNetwork(rng *rand.Rand, numObjects, numTicks, contacts int) *contact.Network {
	var cs []contact.Contact
	for i := 0; i < contacts; i++ {
		a := trajectory.ObjectID(rng.Intn(numObjects))
		b := trajectory.ObjectID(rng.Intn(numObjects))
		if a == b {
			continue
		}
		lo := trajectory.Tick(rng.Intn(numTicks))
		hi := lo + trajectory.Tick(rng.Intn(4))
		if int(hi) >= numTicks {
			hi = trajectory.Tick(numTicks - 1)
		}
		cs = append(cs, contact.Contact{A: a, B: b, Validity: contact.Interval{Lo: lo, Hi: hi}})
	}
	return contact.FromContacts(numObjects, numTicks, cs)
}

func TestBuildInvariantsOnRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		numObjects := 2 + rng.Intn(12)
		numTicks := 1 + rng.Intn(30)
		net := randomNetwork(rng, numObjects, numTicks, rng.Intn(40))
		g := Build(net)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Property 5.1 (snapshot symmetry): each node's member set is a
		// connected component of G_t at every covered tick.
		for id := range g.Nodes {
			nd := &g.Nodes[id]
			for tk := nd.Start; tk <= nd.End; tk++ {
				comp := componentOf(net, nd.Members[0], tk)
				if len(comp) != len(nd.Members) {
					t.Fatalf("node %d at tick %d: component size %d, members %d",
						id, tk, len(comp), len(nd.Members))
				}
				for _, m := range nd.Members {
					if !comp[m] {
						t.Fatalf("node %d at tick %d: member %d outside component", id, tk, m)
					}
				}
			}
		}
		// Runs are maximal: a node's predecessor-successor structure never
		// links two nodes with identical member sets back to back.
		for id := range g.Nodes {
			for _, v := range g.Nodes[id].Out {
				if equalMembers(g.Nodes[id].Members, g.Nodes[v].Members) {
					t.Fatalf("nodes %d→%d have identical members; run not maximal", id, v)
				}
			}
		}
	}
}

// componentOf returns the connected component of object o in G_t.
func componentOf(net *contact.Network, o trajectory.ObjectID, tk trajectory.Tick) map[trajectory.ObjectID]bool {
	adj := make(map[trajectory.ObjectID][]trajectory.ObjectID)
	for _, pr := range net.PairsAt(tk) {
		adj[pr.A] = append(adj[pr.A], pr.B)
		adj[pr.B] = append(adj[pr.B], pr.A)
	}
	comp := map[trajectory.ObjectID]bool{o: true}
	stack := []trajectory.ObjectID{o}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !comp[w] {
				comp[w] = true
				stack = append(stack, w)
			}
		}
	}
	return comp
}

func equalMembers(a, b []trajectory.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNodeOfExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := randomNetwork(rng, 8, 25, 30)
	g := Build(net)
	for o := trajectory.ObjectID(0); int(o) < 8; o++ {
		for tk := trajectory.Tick(0); tk < 25; tk++ {
			id := g.NodeOf(o, tk)
			if id == Invalid {
				t.Fatalf("NodeOf(%d, %d) = Invalid", o, tk)
			}
			nd := g.Nodes[id]
			if !nd.Span().Contains(tk) || !containsObject(nd.Members, o) {
				t.Fatalf("NodeOf(%d, %d) = node %d %+v", o, tk, id, nd)
			}
		}
	}
	if g.NodeOf(0, -1) != Invalid || g.NodeOf(0, 25) != Invalid || g.NodeOf(99, 0) != Invalid {
		t.Error("out-of-range NodeOf should be Invalid")
	}
}

func TestAugmentValidatesResolutions(t *testing.T) {
	g := Build(figure1Network())
	if err := g.Augment([]int{3}); err == nil {
		t.Error("non-power-of-two resolution accepted")
	}
	if err := g.Augment([]int{4}); err == nil {
		t.Error("resolution list not starting at 2 accepted")
	}
	if err := g.Augment([]int{2, 4, 8}); err != nil {
		t.Errorf("valid resolutions rejected: %v", err)
	}
}

func TestBoundaryRules(t *testing.T) {
	// Construct a graph with one long-lived node: a single object, 20 ticks.
	g := Build(contact.FromContacts(1, 20, nil))
	if len(g.Nodes) != 1 {
		t.Fatal("want a single run")
	}
	// End = 19, L = 4 → boundary 16, but arrival 20 is outside [0, 19].
	if _, ok := g.Boundary(0, 4); ok {
		t.Error("boundary with out-of-domain arrival accepted")
	}
	g2 := Build(contact.FromContacts(2, 10, []contact.Contact{
		{A: 0, B: 1, Validity: contact.Interval{Lo: 3, Hi: 5}},
	}))
	// Object runs: {0}[0,2], {1}[0,2], {0,1}[3,5], {0}[6,9], {1}[6,9].
	id := g2.NodeOf(0, 3)
	nd := g2.Nodes[id]
	if nd.Start != 3 || nd.End != 5 {
		t.Fatalf("contact run = %+v", nd)
	}
	ta, ok := g2.Boundary(id, 4)
	if !ok || ta != 4 {
		t.Fatalf("Boundary = %d, %v; want 4, true", ta, ok)
	}
	// L=8: floor(5/8)*8 = 0 < Start 3 → no boundary.
	if _, ok := g2.Boundary(id, 8); ok {
		t.Error("boundary before span start accepted")
	}
}

func TestStatsAndAvgDegree(t *testing.T) {
	d := mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 80, NumTicks: 120, Seed: 3})
	net := contact.Extract(d)
	g := Build(net)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := g.Augment([]int{2, 4, 8, 16, 32}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Vertices != int64(len(g.Nodes)) || s.Edges != g.NumEdges() {
		t.Error("Stats disagrees with direct counts")
	}
	if len(s.LongEdges) != 5 {
		t.Fatalf("LongEdges entries = %d", len(s.LongEdges))
	}
	// Reduction claim (§6.2.1.1): DN is much smaller than the TEN.
	ten := net.TEN()
	if s.Vertices >= ten.Vertices {
		t.Errorf("DN vertices %d not smaller than TEN %d", s.Vertices, ten.Vertices)
	}
	if s.Edges >= ten.Edges {
		t.Errorf("DN edges %d not smaller than TEN %d", s.Edges, ten.Edges)
	}
	// Table 4 trend: average degree grows with the resolution.
	prev := 0.0
	for _, L := range []int{2, 8, 32} {
		avg, nodes := g.AvgDegree(L)
		if nodes > 50 && avg < prev {
			t.Errorf("avg degree at L=%d is %.2f, below lower resolution %.2f", L, avg, prev)
		}
		prev = avg
	}
	if avg, nodes := g.AvgDegree(64); avg != 0 || nodes != 0 {
		t.Error("AvgDegree of absent resolution should be 0")
	}
}

func TestBuildDeterministic(t *testing.T) {
	d := mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 40, NumTicks: 60, Seed: 8})
	net := contact.Extract(d)
	g1 := Build(net)
	g2 := Build(net)
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatal("node counts differ between builds")
	}
	for i := range g1.Nodes {
		a, b := g1.Nodes[i], g2.Nodes[i]
		if a.Start != b.Start || a.End != b.End || !equalMembers(a.Members, b.Members) {
			t.Fatalf("node %d differs between builds", i)
		}
		if len(a.Out) != len(b.Out) {
			t.Fatalf("node %d out-degree differs", i)
		}
		for k := range a.Out {
			if a.Out[k] != b.Out[k] {
				t.Fatalf("node %d edge %d differs", i, k)
			}
		}
	}
}

func TestRunsOf(t *testing.T) {
	g := Build(figure1Network())
	runs := g.RunsOf(0)
	if len(runs) != 3 {
		t.Fatalf("object 0 runs = %v, want 3 runs", runs)
	}
	if g.RunsOf(99) != nil || g.RunsOf(-1) != nil {
		t.Error("out-of-range RunsOf should be nil")
	}
}

func TestStatsOnFigure1WithAugment(t *testing.T) {
	g := Build(figure1Network())
	if err := g.Augment([]int{2}); err != nil {
		t.Fatal(err)
	}
	// Verify one concrete long edge: from {0,1}@[0,0], boundary 0, targets
	// at tick 2 = nodes reachable in 2 steps: {0}@[1,1]→{0,1}@[2,3] and
	// {1,2,3}@[1,1]→{0,1}@[2,3],{2,3}@[2,2].
	src := g.NodeOf(0, 0)
	ta, ok := g.Boundary(src, 2)
	if !ok || ta != 0 {
		t.Fatalf("boundary = %d, %v", ta, ok)
	}
	targets := g.LongOut(src, 2)
	want := map[NodeID]bool{g.NodeOf(0, 2): true, g.NodeOf(2, 2): true}
	if len(targets) != len(want) {
		t.Fatalf("targets = %v, want %v", targets, want)
	}
	for _, w := range targets {
		if !want[w] {
			t.Fatalf("unexpected target %d", w)
		}
	}
}
