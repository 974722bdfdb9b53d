package segment

import (
	"testing"

	"streach/internal/contact"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// netLog returns a log sealing slabs into their plain slab-local networks
// and counting builds, pre-filled with total rolling-pattern instants.
func netLog(t *testing.T, numObjects, width, total int) (*Log[*contact.Network], *int) {
	t.Helper()
	builds := new(int)
	log := NewLog(numObjects, width, func(span contact.Interval, net *contact.Network) (*contact.Network, error) {
		*builds++
		return net, nil
	})
	for tk := trajectory.Tick(0); int(tk) < total; tk++ {
		if _, err := addInstant(log, pairsAt(numObjects, tk)); err != nil {
			t.Fatal(err)
		}
	}
	return log, builds
}

// pending reads the delta-log state off a view: the late/retraction events
// pending against sealed slabs — the work a full Compact would fold in —
// and the number of slabs they are pending against.
func pending[S any](log *Log[S]) (depth, dirty int) {
	slabs, _, _, _ := log.View()
	for _, s := range slabs {
		depth += s.Pending
		if s.Pending > 0 {
			dirty++
		}
	}
	return depth, dirty
}

func ev(tick trajectory.Tick, a, b trajectory.ObjectID) contact.Event {
	return contact.Event{Tick: tick, A: a, B: b}
}

func retr(tick trajectory.Tick, a, b trajectory.ObjectID) contact.Event {
	return contact.Event{Tick: tick, A: a, B: b, Retract: true}
}

// TestDeltaLateAndRetract drives late adds and retractions into sealed
// slabs and the tail, asserting overlays, counters, point lookups, and the
// cumulative snapshot all reflect the corrections immediately.
func TestDeltaLateAndRetract(t *testing.T) {
	const numObjects, width, total = 8, 16, 40 // 2 sealed slabs + 8-tick tail
	log, _ := netLog(t, numObjects, width, total)

	// Pair (0,7) never occurs in the rolling pattern; (0,1) is active at
	// even ticks. Late-add the former at a sealed tick and in the tail,
	// retract the latter at a sealed tick, and mix in a duplicate + a miss.
	res, err := log.IngestEvents([]contact.Event{
		ev(5, 0, 7),     // late add, slab 0
		ev(35, 7, 0),    // late add, tail (normalized to (0,7))
		retr(6, 0, 1),   // retraction, slab 0
		ev(4, 0, 1),     // duplicate: already active at tick 4
		retr(20, 0, 7),  // miss: never active at tick 20
		retr(100, 2, 3), // miss: beyond the frontier, must not advance time
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Late != 2 || res.Retracted != 1 || res.Duplicates != 1 || res.RetractMisses != 2 {
		t.Fatalf("ApplyResult = %+v, want late 2, retracted 1, dup 1, misses 2", res)
	}
	if res.Frontier != 0 || len(res.Sealed) != 0 {
		t.Fatalf("no frontier work expected, got %+v", res)
	}
	wantChanged := []contact.Interval{{Lo: 5, Hi: 6}, {Lo: 35, Hi: 35}}
	if len(res.Changed) != 2 || res.Changed[0] != wantChanged[0] || res.Changed[1] != wantChanged[1] {
		t.Fatalf("Changed = %v, want %v", res.Changed, wantChanged)
	}
	if got := log.NumTicks(); got != total {
		t.Fatalf("NumTicks = %d after pure corrections, want %d", got, total)
	}

	// Tail events are absorbed, not pending.
	if depth, dirty := pending(log); depth != 2 || dirty != 1 {
		t.Fatalf("pending depth %d on %d slabs, want 2 on 1", depth, dirty)
	}
	c := log.Counters()
	if c.LateApplied != 2 || c.Retractions != 1 || c.Duplicates != 1 || c.RetractMisses != 2 {
		t.Fatalf("Counters = %+v", c)
	}

	for _, check := range []struct {
		a, b trajectory.ObjectID
		tick trajectory.Tick
		want bool
	}{
		{0, 7, 5, true},    // late add visible in sealed slab
		{0, 7, 35, true},   // late add visible in tail
		{0, 1, 6, false},   // (0,1) was active at tick 6 (even), retracted above
		{0, 1, 4, true},    // duplicate left the instant intact
		{0, 7, 4, false},   // neighbouring tick untouched
		{2, 3, 100, false}, // beyond the domain
	} {
		if got := log.ActiveAt(check.a, check.b, check.tick); got != check.want {
			t.Fatalf("ActiveAt(%d,%d,%d) = %v, want %v", check.a, check.b, check.tick, got, check.want)
		}
	}
	// The retraction must not leak onto another even tick.
	if !log.ActiveAt(0, 1, 8) {
		t.Fatal("retraction leaked onto another tick")
	}

	// View: slab 0 dirty with overlay, slab 1 clean, tail patched.
	slabs, _, tailNet, numTicks := log.View()
	if numTicks != total || len(slabs) != 2 {
		t.Fatalf("View: %d slabs over %d ticks", len(slabs), numTicks)
	}
	if slabs[0].Overlay == nil || slabs[0].Pending != 2 {
		t.Fatalf("slab 0 overlay missing (pending %d)", slabs[0].Pending)
	}
	if slabs[1].Overlay != nil || slabs[1].Pending != 0 {
		t.Fatal("slab 1 should be clean")
	}
	hasPair := func(net *contact.Network, tk trajectory.Tick, pr stjoin.Pair) bool {
		for _, q := range net.PairsAt(tk) {
			if q == pr {
				return true
			}
		}
		return false
	}
	if !hasPair(slabs[0].Overlay, 5, stjoin.MakePair(0, 7)) {
		t.Fatal("overlay misses the late add")
	}
	if hasPair(slabs[0].Value, 5, stjoin.MakePair(0, 7)) {
		t.Fatal("sealed value mutated before compaction")
	}
	if !hasPair(tailNet, 35-32, stjoin.MakePair(0, 7)) {
		t.Fatal("tail view misses the late add")
	}

	// Snapshot agrees with ground truth: the rolling pattern with the
	// three corrections applied.
	want := contact.NewBuilder(numObjects)
	for tk := trajectory.Tick(0); int(tk) < total; tk++ {
		pairs := pairsAt(numObjects, tk)
		switch tk {
		case 5, 35:
			pairs = append(pairs, stjoin.MakePair(0, 7))
		case 6:
			kept := pairs[:0]
			for _, pr := range pairs {
				if pr != stjoin.MakePair(0, 1) {
					kept = append(kept, pr)
				}
			}
			pairs = kept
		}
		want.AddInstant(pairs)
	}
	if !sameNetwork(log.Snapshot(), want.Network()) {
		t.Fatal("Snapshot disagrees with patched ground truth")
	}
}

func TestDeltaCompaction(t *testing.T) {
	const numObjects, width, total = 8, 16, 48 // 3 sealed slabs, empty tail
	log, builds := netLog(t, numObjects, width, total)
	*builds = 0

	if _, err := log.IngestEvents([]contact.Event{
		ev(2, 0, 7), ev(3, 0, 7), // slab 0: depth 2
		ev(20, 0, 7), // slab 1: depth 1
	}, 0); err != nil {
		t.Fatal(err)
	}
	// Without a threshold nothing folds: the late events stay pending.
	if depth, dirty := pending(log); depth != 3 || dirty != 2 || *builds != 0 {
		t.Fatalf("no compaction: depth %d dirty %d rebuilds %d, want 3, 2, 0", depth, dirty, *builds)
	}

	// Threshold 2 compacts only slab 0.
	n, err := log.IngestEvents([]contact.Event{ev(21, 0, 7)}, 2) // slab 1 now depth 2
	if err != nil {
		t.Fatal(err)
	}
	if n.Compacted != 2 {
		t.Fatalf("threshold pass compacted %d slabs, want 2", n.Compacted)
	}
	if *builds != 2 {
		t.Fatalf("%d rebuilds, want 2", *builds)
	}
	if depth, dirty := pending(log); depth != 0 || dirty != 0 {
		t.Fatalf("depth %d dirty %d after compaction", depth, dirty)
	}
	// The rebuilt sealed value now contains the correction directly.
	slabs, _, _, _ := log.View()
	if slabs[0].Overlay != nil {
		t.Fatal("slab 0 still has an overlay")
	}
	found := false
	for _, q := range slabs[0].Value.PairsAt(2) {
		if q == stjoin.MakePair(0, 7) {
			found = true
		}
	}
	if !found {
		t.Fatal("compacted sealed value misses the late add")
	}
	if got := log.Counters().Compactions; got != 2 {
		t.Fatalf("Compactions counter = %d, want 2", got)
	}

	// Manual Compact on a clean log is a no-op.
	if n, err := log.Compact(); err != nil || n != 0 {
		t.Fatalf("clean Compact = (%d, %v)", n, err)
	}
	// Dirty again, manual Compact sweeps regardless of depth.
	if _, err := log.IngestEvents([]contact.Event{ev(40, 0, 7)}, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := log.Compact(); err != nil || n != 1 {
		t.Fatalf("manual Compact = (%d, %v), want (1, nil)", n, err)
	}
	if !log.ActiveAt(0, 7, 40) {
		t.Fatal("correction lost across compaction")
	}
}

// TestEventFrontierGap ingests an event beyond the frontier: the clock
// pads forward with empty instants (sealing slabs as it crosses widths)
// and the instant lands at its tick.
func TestEventFrontierGap(t *testing.T) {
	const numObjects, width = 4, 8
	log := NewLog(numObjects, width, func(span contact.Interval, net *contact.Network) (*contact.Network, error) {
		return net, nil
	})
	res, err := log.IngestEvents([]contact.Event{ev(19, 0, 1), ev(19, 0, 1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if log.NumTicks() != 20 || log.NumSealed() != 2 {
		t.Fatalf("NumTicks %d NumSealed %d, want 20 and 2", log.NumTicks(), log.NumSealed())
	}
	if res.Frontier != 1 || res.Duplicates != 1 || len(res.Sealed) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Changed) != 1 || res.Changed[0] != (contact.Interval{Lo: 0, Hi: 19}) {
		t.Fatalf("Changed = %v, want one [0,19] interval", res.Changed)
	}
	if !log.ActiveAt(0, 1, 19) || log.ActiveAt(0, 1, 18) {
		t.Fatal("frontier-gap event misplaced")
	}

	// AdvanceTo pads the quiet feed; already-covered is a no-op.
	if _, err := log.AdvanceTo(25); err != nil {
		t.Fatal(err)
	}
	if log.NumTicks() != 25 {
		t.Fatalf("NumTicks = %d after AdvanceTo(25)", log.NumTicks())
	}
	if _, err := log.AdvanceTo(10); err != nil || log.NumTicks() != 25 {
		t.Fatal("AdvanceTo must never rewind")
	}
}

// TestEventFastPathMatchesAddInstant pins the in-order equivalence: an
// instant added as one in-order batch of frontier adds (the fast path, a
// single Builder append) builds the identical log to the same instant sent
// through the general path, which a retraction that matches nothing forces.
func TestEventFastPathMatchesAddInstant(t *testing.T) {
	const numObjects, width, total = 8, 16, 40
	build := func(span contact.Interval, net *contact.Network) (*contact.Network, error) {
		return net, nil
	}
	fast := NewLog(numObjects, width, build)
	general := NewLog(numObjects, width, build)
	for tk := trajectory.Tick(0); int(tk) < total; tk++ {
		pairs := pairsAt(numObjects, tk)
		evs := make([]contact.Event, len(pairs))
		for i, pr := range pairs {
			evs[i] = ev(tk, pr.A, pr.B)
		}
		res, err := fast.IngestEvents(evs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frontier != len(pairs) || res.Late != 0 || res.Duplicates != 0 {
			t.Fatalf("tick %d: res = %+v", tk, res)
		}
		res, err = general.IngestEvents(append(evs, retr(tk, 0, 7)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frontier != len(pairs) || res.RetractMisses != 1 {
			t.Fatalf("tick %d, general path: res = %+v", tk, res)
		}
	}
	if fast.NumSealed() != general.NumSealed() {
		t.Fatalf("sealed %d vs %d", fast.NumSealed(), general.NumSealed())
	}
	if !sameNetwork(fast.Snapshot(), general.Snapshot()) {
		t.Fatal("fast-path log diverged from the general path's")
	}
}

// TestSealAbsorbsTailLateEvents: late events landing in the open tail are
// folded in at seal time, so the sealed slab is born clean.
func TestSealAbsorbsTailLateEvents(t *testing.T) {
	const numObjects, width = 4, 8
	log, _ := netLog(t, numObjects, width, 4) // tail holds ticks 0..3
	if _, err := log.IngestEvents([]contact.Event{ev(1, 0, 3)}, 0); err != nil {
		t.Fatal(err)
	}
	if depth, _ := pending(log); depth != 0 {
		t.Fatal("tail-late events must not count as sealed-slab delta depth")
	}
	// Fill to the seal.
	for tk := trajectory.Tick(4); int(tk) < width; tk++ {
		if _, err := addInstant(log, pairsAt(numObjects, tk)); err != nil {
			t.Fatal(err)
		}
	}
	slabs, _, _, _ := log.View()
	if len(slabs) != 1 || slabs[0].Overlay != nil || slabs[0].Pending != 0 {
		t.Fatalf("slab not born clean: %d slabs, pending %d", len(slabs), slabs[0].Pending)
	}
	found := false
	for _, q := range slabs[0].Value.PairsAt(1) {
		if q == stjoin.MakePair(0, 3) {
			found = true
		}
	}
	if !found {
		t.Fatal("sealed value lost the tail-late event")
	}
	if !log.ActiveAt(0, 3, 1) {
		t.Fatal("ActiveAt lost the absorbed event")
	}
}
