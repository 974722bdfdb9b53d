package contact

import (
	"slices"
	"testing"

	"streach/internal/geo"
	"streach/internal/mobility"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// TestBuilderMatchesExtract feeds a dataset instant by instant and compares
// the result with the batch extraction.
func TestBuilderMatchesExtract(t *testing.T) {
	d := mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 40, NumTicks: 200, Seed: 131})
	want := Extract(d)

	b := NewBuilder(d.NumObjects())
	j := stjoin.NewJoiner(d.Env, d.ContactDist)
	positions := make([]geo.Point, d.NumObjects())
	for tick := trajectory.Tick(0); int(tick) < d.NumTicks(); tick++ {
		for i := range d.Trajs {
			positions[i] = d.Trajs[i].AtClamped(tick)
		}
		b.AddPositions(j, positions)
	}
	got := b.Network()

	if got.NumTicks != want.NumTicks || got.NumObjects != want.NumObjects {
		t.Fatalf("domain mismatch: got (%d, %d), want (%d, %d)",
			got.NumObjects, got.NumTicks, want.NumObjects, want.NumTicks)
	}
	if len(got.Contacts) != len(want.Contacts) {
		t.Fatalf("contact count: got %d, want %d", len(got.Contacts), len(want.Contacts))
	}
	for i := range got.Contacts {
		if got.Contacts[i] != want.Contacts[i] {
			t.Fatalf("contact %d: got %+v, want %+v", i, got.Contacts[i], want.Contacts[i])
		}
	}
	if got.ContactInstants() != want.ContactInstants() {
		t.Fatalf("contact instants: got %d, want %d", got.ContactInstants(), want.ContactInstants())
	}
}

// TestBuilderSnapshotThenContinue takes a mid-stream snapshot, keeps
// feeding, and checks both snapshots are self-consistent: the early one
// closes open contacts at its horizon, the late one matches batch
// extraction of the whole stream.
func TestBuilderSnapshotThenContinue(t *testing.T) {
	pairsAt := func(tk int) []stjoin.Pair {
		// Pair {0,1} in contact during [2, 7]; pair {1,2} during [5, 6].
		var out []stjoin.Pair
		if tk >= 2 && tk <= 7 {
			out = append(out, stjoin.Pair{A: 0, B: 1})
		}
		if tk >= 5 && tk <= 6 {
			out = append(out, stjoin.Pair{A: 1, B: 2})
		}
		return out
	}
	b := NewBuilder(3)
	for tk := 0; tk < 5; tk++ {
		b.AddInstant(pairsAt(tk))
	}
	early := b.Network()
	if early.NumTicks != 5 || len(early.Contacts) != 1 {
		t.Fatalf("early snapshot: ticks=%d contacts=%v", early.NumTicks, early.Contacts)
	}
	if got := early.Contacts[0].Validity; got != (Interval{Lo: 2, Hi: 4}) {
		t.Fatalf("early snapshot clipped validity: %v", got)
	}
	for tk := 5; tk < 10; tk++ {
		b.AddInstant(pairsAt(tk))
	}
	late := b.Network()
	if late.NumTicks != 10 || len(late.Contacts) != 2 {
		t.Fatalf("late snapshot: ticks=%d contacts=%v", late.NumTicks, late.Contacts)
	}
	if got := late.Contacts[0].Validity; got != (Interval{Lo: 2, Hi: 7}) {
		t.Fatalf("contact {0,1}: validity %v, want [2, 7]", got)
	}
	if got := late.Contacts[1].Validity; got != (Interval{Lo: 5, Hi: 6}) {
		t.Fatalf("contact {1,2}: validity %v, want [5, 6]", got)
	}
}

// TestBuilderIgnoresSelfAndDuplicatePairs hardens the ingestion path.
func TestBuilderIgnoresSelfAndDuplicatePairs(t *testing.T) {
	b := NewBuilder(2)
	b.AddInstant([]stjoin.Pair{{A: 0, B: 0}, {A: 0, B: 1}, {A: 0, B: 1}})
	net := b.Network()
	if len(net.Contacts) != 1 {
		t.Fatalf("contacts: %v", net.Contacts)
	}
	if net.ContactInstants() != 1 {
		t.Fatalf("instants: %d", net.ContactInstants())
	}
}

// AddPositions joins the given per-object positions with joiner j and
// ingests the resulting pairs — how the tests feed raw location samples.
// positions[i] is object i's position at the new instant; each open contact
// remembers its closest approach as its Weight.
func (b *Builder) AddPositions(j *stjoin.Joiner, positions []geo.Point) {
	var in []sample
	j.Join(positions, func(x, y int) bool {
		in = append(in, sample{
			pr:   stjoin.MakePair(trajectory.ObjectID(x), trajectory.ObjectID(y)),
			dist: float32(positions[x].Dist(positions[y])),
		})
		return true
	})
	slices.SortStableFunc(in, compareSamples)
	b.addInstant(in)
}
