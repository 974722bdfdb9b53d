package shard

import (
	"testing"

	"streach/internal/contact"
	"streach/internal/geo"
	"streach/internal/mobility"
	"streach/internal/trajectory"
)

func TestHashBalanceAndDeterminism(t *testing.T) {
	const n, k = 1000, 4
	a, err := Hash(n, k)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != k || a.Partitioner != "hash" || a.NumObjects() != n {
		t.Fatalf("assignment header %+v", a)
	}
	total := 0
	for s := 0; s < k; s++ {
		c := a.Objects(s)
		total += c
		// SplitMix64 spreads 1000 IDs over 4 shards well within ±30%.
		if c < n/k*7/10 || c > n/k*13/10 {
			t.Errorf("shard %d owns %d objects, want ~%d", s, c, n/k)
		}
	}
	if total != n {
		t.Errorf("shards own %d objects in total, want %d", total, n)
	}
	b, _ := Hash(n, k)
	for o := trajectory.ObjectID(0); int(o) < n; o++ {
		if a.Owner(o) != b.Owner(o) {
			t.Fatalf("hash assignment not deterministic at object %d", o)
		}
	}
}

func TestHashValidation(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{0, 1}, {10, 0}, {10, -2}, {3, 4}} {
		if _, err := Hash(tc.n, tc.k); err == nil {
			t.Errorf("Hash(%d, %d) accepted", tc.n, tc.k)
		}
	}
}

// clusteredDataset parks each object on one of four well-separated home
// points, so every object's dominant cell is unambiguous.
func clusteredDataset(n int) *trajectory.Dataset {
	homes := []geo.Point{{X: 100, Y: 100}, {X: 900, Y: 100}, {X: 100, Y: 900}, {X: 900, Y: 900}}
	d := &trajectory.Dataset{
		Env:         geo.NewRect(geo.Point{}, geo.Point{X: 1000, Y: 1000}),
		TickSeconds: 1,
		ContactDist: 25,
	}
	for o := 0; o < n; o++ {
		home := homes[o%len(homes)]
		pos := make([]geo.Point, 8)
		for i := range pos {
			pos[i] = geo.Point{X: home.X + float64(i%3), Y: home.Y + float64(i%2)}
		}
		d.Trajs = append(d.Trajs, trajectory.Trajectory{Object: trajectory.ObjectID(o), Pos: pos})
	}
	return d
}

func TestSpatialKeepsClustersTogether(t *testing.T) {
	d := clusteredDataset(80)
	a, err := Spatial(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Partitioner != "spatial" {
		t.Fatalf("partitioner %q", a.Partitioner)
	}
	// Objects sharing a home (o%4) must share a shard: the cut never splits
	// a cell, and each home cluster fits one cell of the snapping grid.
	for o := 4; o < 80; o++ {
		if a.Owner(trajectory.ObjectID(o)) != a.Owner(trajectory.ObjectID(o%4)) {
			t.Fatalf("objects %d and %d share home %d but not shard", o, o%4, o%4)
		}
	}
	// Four equal clusters into four shards: perfectly balanced.
	for s := 0; s < 4; s++ {
		if got := a.Objects(s); got != 20 {
			t.Errorf("shard %d owns %d objects, want 20", s, got)
		}
	}
	b, _ := Spatial(d, 4)
	for o := trajectory.ObjectID(0); int(o) < 80; o++ {
		if a.Owner(o) != b.Owner(o) {
			t.Fatalf("spatial assignment not deterministic at object %d", o)
		}
	}

	// On clustered mobility — the preset the retired sharding report was
	// gated on — the spatial cut keeps under a quarter of the contacts
	// across shards and always fewer than the hash cut does.
	m := mobility.Clustered(mobility.ClusteredConfig{
		NumObjects: 384, NumTicks: 288, NumClusters: 12, RoamProb: 0.002, Seed: 57,
	})
	net := contact.Extract(m)
	for _, k := range []int{2, 4} {
		sa, err := Spatial(m, k)
		if err != nil {
			t.Fatal(err)
		}
		ha, err := Hash(m.NumObjects(), k)
		if err != nil {
			t.Fatal(err)
		}
		spatial, hash := Cut(net, sa).CrossRatio(), Cut(net, ha).CrossRatio()
		if spatial >= 0.25 || spatial >= hash {
			t.Errorf("K=%d: cross-shard contact ratio spatial %.3f, hash %.3f; want spatial < 0.25 and below hash", k, spatial, hash)
		}
	}
}

// TestCutAndMergeRoundTrip: Cut puts every contact into its owner(A) part
// and a cross contact into owner(B)'s part as well, holds nothing foreign
// and no extra copy in any part, and counts the cross and total contacts.
func TestCutAndMergeRoundTrip(t *testing.T) {
	const n, ticks = 12, 10
	contacts := []contact.Contact{
		{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 2}},
		{A: 0, B: 11, Validity: contact.Interval{Lo: 1, Hi: 1}},
		{A: 2, B: 3, Validity: contact.Interval{Lo: 3, Hi: 5}},
		{A: 4, B: 9, Validity: contact.Interval{Lo: 4, Hi: 9}},
		{A: 7, B: 8, Validity: contact.Interval{Lo: 0, Hi: 9}},
	}
	net := contact.FromContacts(n, ticks, contacts)
	a, err := Hash(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp := Cut(net, a)
	if len(sp.Parts) != 3 {
		t.Fatalf("parts = %d", len(sp.Parts))
	}
	if sp.TotalContacts != len(net.Contacts) {
		t.Errorf("TotalContacts = %d, want %d", sp.TotalContacts, len(net.Contacts))
	}
	// Every contact lands in its endpoints' shards — cross ones in both.
	wantCross, stored := 0, 0
	for _, c := range net.Contacts {
		sa, sb := a.Owner(c.A), a.Owner(c.B)
		if !hasContact(sp.Parts[sa], c) {
			t.Errorf("contact %v missing from owner shard %d", c, sa)
		}
		stored++
		if sb != sa {
			wantCross++
			stored++
			if !hasContact(sp.Parts[sb], c) {
				t.Errorf("cross contact %v missing from shard %d", c, sb)
			}
		}
	}
	if wantCross == 0 || wantCross == len(net.Contacts) {
		t.Fatalf("fixture has %d of %d contacts crossing the cut; want some of each", wantCross, len(net.Contacts))
	}
	if sp.CrossContacts != wantCross {
		t.Errorf("CrossContacts = %d, want %d", sp.CrossContacts, wantCross)
	}
	if r := sp.CrossRatio(); r != float64(wantCross)/float64(len(net.Contacts)) {
		t.Errorf("CrossRatio = %v", r)
	}
	// Each part holds exactly the contacts incident to its objects: nothing
	// foreign, and no copy beyond the one per endpoint shard counted above.
	held := 0
	for s, p := range sp.Parts {
		if p.NumObjects != n || p.NumTicks != ticks {
			t.Errorf("part %d dims %dx%d, want global %dx%d", s, p.NumObjects, p.NumTicks, n, ticks)
		}
		for _, c := range p.Contacts {
			if a.Owner(c.A) != s && a.Owner(c.B) != s {
				t.Errorf("part %d holds foreign contact %v", s, c)
			}
		}
		held += len(p.Contacts)
	}
	if held != stored {
		t.Errorf("parts hold %d contacts, want %d (one per endpoint shard)", held, stored)
	}
}

func hasContact(net *contact.Network, c contact.Contact) bool {
	for _, x := range net.Contacts {
		if x == c {
			return true
		}
	}
	return false
}
