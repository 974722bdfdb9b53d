package testgen

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"streach/internal/contact"
	"streach/internal/trajectory"
)

// drawn is what every generator reads from one input, each on its own.
type drawn struct {
	spec, fixed Spec
	net         *contact.Network
	query       Query
	script      Script
	ops         []Op
	feed, perm  []contact.Event
}

func draw(data []byte) drawn {
	d := drawn{spec: New(data).Spec(40, 400, 0), fixed: New(data).Spec(16, 120, 160),
		net: New(data).Network(12, 80, 256), query: New(data).Query(40, 400)}
	sc := New(data).Script()
	for frontier := 0; len(d.ops) < 64 && sc.More(); frontier++ {
		d.ops = append(d.ops, sc.Next(frontier))
	}
	d.script = Script{Objects: sc.Objects, Width: sc.Width}
	src := New(data)
	d.feed = src.Feed(6, 20, 3, 15)
	d.perm = src.Permute(d.feed)
	return d
}

// inputs are edge cases and random inputs of sizes up to 64 KiB.
func inputs() [][]byte {
	in := [][]byte{nil, {0}, {255}, {1}, slices.Repeat([]byte{255}, 64)}
	for i, n := range []int{2, 7, 31, 100, 1000, MaxInput, 1 << 16} {
		in = append(in, Random(int64(i), n))
	}
	return in
}

// TestAnyInputStaysInRange draws twice from each input, expecting the same
// outputs, holds every draw to its documented range, and the inputs
// together to drawing both dataset kinds and every op kind.
func TestAnyInputStaysInRange(t *testing.T) {
	kinds, ops := map[bool]bool{}, map[OpKind]bool{}
	for _, data := range inputs() {
		d := draw(data)
		if !reflect.DeepEqual(d, draw(data)) {
			t.Fatalf("two draws from %d bytes differ", len(data))
		}
		kinds[d.spec.Clustered] = true
		for _, c := range []struct {
			sp                Spec
			maxObjects, ticks int
		}{{d.spec, 40, 400}, {d.fixed, 16, 120}} {
			if sp := c.sp; sp.Objects < 2 || sp.Objects > c.maxObjects || sp.Ticks < 1 || sp.Ticks > c.ticks || sp.Seed < 0 || sp.Seed >= 1<<32 ||
				sp.Side < 0 || sp.Side > 600 || sp.Side != 160 && c.sp == d.fixed {
				t.Fatalf("spec %+v outside %d objects, %d ticks", sp, c.maxObjects, c.ticks)
			}
		}
		n := d.net
		if n.NumObjects < 1 || n.NumObjects > 12 || n.NumTicks < 1 || n.NumTicks > 80 || len(n.Contacts) > 256 {
			t.Fatalf("network of %d objects over %d ticks with %d contacts", n.NumObjects, n.NumTicks, len(n.Contacts))
		}
		for _, c := range n.Contacts {
			inRange(t, c.A, c.B, c.Validity.Hi, n.NumObjects, n.NumTicks)
		}
		q := d.query
		if iv := q.Interval; iv.Lo < 0 || iv.Hi < iv.Lo || iv.Hi >= 400 || len(q.Seeds) < 1 || len(q.Seeds) > 4 || q.Dst >= 40 {
			t.Fatalf("query %+v", q)
		}
		for _, s := range q.Seeds {
			if s.Obj >= 40 || s.Hops < 0 || s.Hops > 2 || s.Start < q.Interval.Lo || s.Start > q.Interval.Hi+2 || !slices.Contains(q.Objs, s.Obj) {
				t.Fatalf("seed %+v of query %+v", s, q)
			}
		}
		if sc := d.script; sc.Objects < 2 || sc.Objects > 8 || sc.Width < 1 || sc.Width > 16 {
			t.Fatalf("script of %d objects, width %d", sc.Objects, sc.Width)
		}
		for frontier, op := range d.ops {
			ops[op.Kind] = true
			checkOp(t, op, frontier, d.script)
		}
		for _, ev := range d.feed {
			inRange(t, ev.A, ev.B, ev.Tick, 6, 20)
		}
		checkCausal(t, d.feed, d.perm)
	}
	if len(kinds) != 2 || len(ops) != 6 {
		t.Fatalf("the inputs draw %d dataset kinds and %d op kinds, want 2 and 6", len(kinds), len(ops))
	}
}

func inRange(t *testing.T, a, b trajectory.ObjectID, tick trajectory.Tick, objects, ticks int) {
	t.Helper()
	if a < 0 || int(a) >= objects || b < 0 || int(b) >= objects || tick < 0 || int(tick) >= ticks {
		t.Fatalf("(%d, %d) at %d outside %d objects, %d ticks", a, b, tick, objects, ticks)
	}
}

// checkOp holds an op read at frontier to Script.Next's ranges.
func checkOp(t *testing.T, op Op, frontier int, sc Script) {
	t.Helper()
	if op.Kind == OpInstant && len(op.Events) > 7 || op.Kind == OpBatch && (len(op.Events) < 1 || len(op.Events) > 6) ||
		op.Threshold < 0 || op.Threshold > 3 || op.Kind == OpAdvance && (op.To <= frontier || op.To > frontier+2*sc.Width) {
		t.Fatalf("op %+v at frontier %d, width %d", op, frontier, sc.Width)
	}
	for _, ev := range op.Events { // a replayed batch was read at an earlier frontier
		inRange(t, ev.A, ev.B, ev.Tick, sc.Objects, frontier+4*sc.Width+2)
		if ev.A == ev.B || op.Kind == OpInstant && (int(ev.Tick) != frontier || ev.Retract) {
			t.Fatalf("op %d at frontier %d: event %+v", op.Kind, frontier, ev)
		}
	}
}

// checkCausal holds perm to a permutation of feed that delivers each
// retraction after its add.
func checkCausal(t *testing.T, feed, perm []contact.Event) {
	t.Helper()
	sorted := func(evs []contact.Event) []string {
		out := make([]string, len(evs))
		for i, ev := range evs {
			out[i] = fmt.Sprint(ev)
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(sorted(feed), sorted(perm)) {
		t.Fatalf("%d delivered events are not a permutation of the feed's %d", len(perm), len(feed))
	}
	for i, ev := range perm {
		add := ev
		add.Retract = false
		if ev.Retract && !slices.Contains(perm[:i], add) {
			t.Fatalf("delivery %d: retraction %+v before the add it withdraws", i, ev)
		}
	}
}

// TestEncodeNetworkRoundTrips holds EncodeNetwork to the inverse of
// Network: a network read from any bytes reads back from its encoding, and
// so do an empty network and an RWP one within the bounds, carrying its
// contacts' objects and validity.
func TestEncodeNetworkRoundTrips(t *testing.T) {
	rwp := Spec{Objects: 12, Ticks: 80, Seed: 107}.Network()
	var cs []contact.Contact
	for _, c := range rwp.Contacts {
		cs = append(cs, contact.Contact{A: c.A, B: c.B, Validity: c.Validity})
	}
	nets := []*contact.Network{contact.FromContacts(rwp.NumObjects, rwp.NumTicks, cs), contact.FromContacts(1, 1, nil)}
	for _, data := range inputs() {
		nets = append(nets, New(data).Network(12, 80, 256))
	}
	for i, net := range nets {
		if got := New(EncodeNetwork(net)).Network(12, 80, len(net.Contacts)); !reflect.DeepEqual(got, net) {
			t.Fatalf("network %d (%d contacts) reads back as another (%d contacts)", i, len(net.Contacts), len(got.Contacts))
		}
	}
}

// TestIntnWidth pins the layout fixtures are written in: Intn(n) reads the
// bytes n−1 needs, big-endian.
func TestIntnWidth(t *testing.T) {
	for _, c := range [][3]int{{1, 0, 3}, {2, 1, 2}, {256, 1, 2}, {257, 258 % 257, 1}, {1 << 16, 258, 1}, {1<<16 + 1, 66051 % 65537, 0}} {
		src := New([]byte{1, 2, 3})
		if got := src.Intn(c[0]); got != c[1] || src.Len() != c[2] {
			t.Errorf("Intn(%d) over 1, 2, 3 = %d leaving %d bytes; want %d leaving %d", c[0], got, src.Len(), c[1], c[2])
		}
	}
}

func TestSeededRunsItsCases(t *testing.T) {
	var lens []int
	Seeded(t, 1, 30, func(t *testing.T, data []byte) { lens = append(lens, len(data)) })
	if want := map[bool]int{false: 30, true: 3}[testing.Short()]; len(lens) != want || slices.Max(lens) > MaxInput {
		t.Fatalf("%d cases ran, want %d; input lengths %v", len(lens), want, lens)
	}
}
