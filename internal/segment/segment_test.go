package segment

import (
	"errors"
	"testing"

	"streach/internal/contact"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

func TestLayoutArithmetic(t *testing.T) {
	l := NewLayout(50, 230)
	if got := l.NumSlabs(); got != 5 {
		t.Fatalf("NumSlabs = %d, want 5", got)
	}
	// Spans must tile [0, NumTicks) exactly.
	expect := trajectory.Tick(0)
	for i := 0; i < l.NumSlabs(); i++ {
		sp := l.Span(i)
		if sp.Lo != expect {
			t.Fatalf("slab %d starts at %d, want %d", i, sp.Lo, expect)
		}
		if sp.Len() == 0 {
			t.Fatalf("slab %d empty", i)
		}
		expect = sp.Hi + 1
	}
	if int(expect) != l.NumTicks {
		t.Fatalf("slabs end at %d, want %d", expect, l.NumTicks)
	}
	if sp := l.Span(4); sp.Hi != 229 {
		t.Fatalf("final slab ends at %d, want 229 (partial slab)", sp.Hi)
	}

	if w := NewLayout(0, 10).Width; w != DefaultWidth {
		t.Fatalf("zero width defaulted to %d, want %d", w, DefaultWidth)
	}
}

// pairsAt synthesizes a deterministic rolling contact pattern: object i
// touches i+1 when (t+i) is even.
func pairsAt(numObjects int, t trajectory.Tick) []stjoin.Pair {
	var out []stjoin.Pair
	for i := 0; i+1 < numObjects; i++ {
		if (int(t)+i)%2 == 0 {
			out = append(out, stjoin.MakePair(trajectory.ObjectID(i), trajectory.ObjectID(i+1)))
		}
	}
	return out
}

// addInstant feeds the log its next instant the way the engine does: the
// instant's contacts as one in-order event batch, then the clock advanced
// over it (an instant without contacts is the clock alone). It returns the
// spans the instant sealed.
func addInstant[S any](log *Log[S], pairs []stjoin.Pair) ([]contact.Interval, error) {
	tk := trajectory.Tick(log.NumTicks())
	evs := make([]contact.Event, len(pairs))
	for i, pr := range pairs {
		evs[i] = contact.Event{Tick: tk, A: pr.A, B: pr.B}
	}
	res, err := log.IngestEvents(evs, 0)
	if err != nil {
		return res.Sealed, err
	}
	adv, err := log.AdvanceTo(int(tk) + 1)
	return append(res.Sealed, adv.Sealed...), err
}

// TestLogSealLifecycle drives the tail → sealed lifecycle and asserts the
// sealed slab networks equal the corresponding windows of the cumulative
// snapshot — the defining equivalence of the LSM-style log.
func TestLogSealLifecycle(t *testing.T) {
	const numObjects, width, total = 8, 16, 80
	log := NewLog(numObjects, width, func(span contact.Interval, net *contact.Network) (*contact.Network, error) {
		if net.NumTicks != span.Len() {
			t.Fatalf("slab %v sealed with %d ticks", span, net.NumTicks)
		}
		return net, nil
	})
	for tk := trajectory.Tick(0); tk < total; tk++ {
		wantSealed := int(tk) / width
		if got := log.NumSealed(); got != wantSealed {
			t.Fatalf("before tick %d: %d sealed, want %d", tk, got, wantSealed)
		}
		sealed, err := addInstant(log, pairsAt(numObjects, tk))
		if err != nil {
			t.Fatal(err)
		}
		if wantSeal := int(tk)%width == width-1; (len(sealed) == 1) != wantSeal {
			t.Fatalf("tick %d: sealed %v, want a seal: %v", tk, sealed, wantSeal)
		}
		if len(sealed) == 1 {
			want := contact.Interval{Lo: tk - trajectory.Tick(width) + 1, Hi: tk}
			if sealed[0] != want {
				t.Fatalf("tick %d: sealed span %v, want %v", tk, sealed[0], want)
			}
		}
	}
	if got := log.NumSealed(); got != total/width {
		t.Fatalf("%d sealed after %d ticks, want %d", got, total, total/width)
	}
	if got := log.NumTicks(); got != total {
		t.Fatalf("NumTicks = %d, want %d", got, total)
	}

	full := log.Snapshot()
	sealed, tailSpan, tailNet, numTicks := log.View()
	if numTicks != total {
		t.Fatalf("View numTicks = %d, want %d", numTicks, total)
	}
	if tailNet != nil {
		t.Fatalf("tail should be empty right after a seal, has span %v", tailSpan)
	}
	for i, s := range sealed {
		wantSpan := contact.Interval{Lo: trajectory.Tick(i * width), Hi: trajectory.Tick((i+1)*width) - 1}
		if s.Span != wantSpan {
			t.Fatalf("sealed %d span %v, want %v", i, s.Span, wantSpan)
		}
		win := full.Window(s.Span.Lo, s.Span.Hi)
		if !sameNetwork(s.Value, win) {
			t.Fatalf("sealed slab %d disagrees with Window(%v) of the snapshot", i, s.Span)
		}
	}

	// A partial tail: per-instant pairs of the tail view must match the
	// cumulative network.
	if sealed, err := addInstant(log, pairsAt(numObjects, total)); err != nil || len(sealed) > 0 {
		t.Fatalf("partial append sealed=%v err=%v", sealed, err)
	}
	_, tailSpan, tailNet, numTicks = log.View()
	if numTicks != total+1 || tailNet == nil {
		t.Fatalf("tail missing after partial append (numTicks %d)", numTicks)
	}
	if tailSpan.Lo != total || tailSpan.Hi != total {
		t.Fatalf("tail span %v, want [%d, %d]", tailSpan, total, total)
	}
	win := log.Snapshot().Window(tailSpan.Lo, tailSpan.Hi)
	if !sameNetwork(tailNet.Network(), win) {
		t.Fatal("tail network disagrees with the snapshot window")
	}
}

// TestLogBuildErrorSurfaces pins the failed-seal contract: the error is
// surfaced, no instant is lost, the time axis never shifts, and a later
// successful build seals one widened slab covering the backlog.
func TestLogBuildErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	failures := 3
	log := NewLog(4, 4, func(span contact.Interval, net *contact.Network) (int, error) {
		if span.Lo > 0 && failures > 0 { // the first slab seals cleanly
			failures--
			return 0, boom
		}
		if span.Len() != net.NumTicks {
			t.Fatalf("sealed span %v over %d-tick network", span, net.NumTicks)
		}
		return net.NumTicks, nil
	})
	// Ticks 0..3 seal slab [0, 3]; ticks 4..6 fill the next tail.
	for tk := trajectory.Tick(0); tk < 7; tk++ {
		if _, err := addInstant(log, nil); err != nil {
			t.Fatalf("tick %d: %v", tk, err)
		}
	}
	// Ticks 7..9 each trigger a seal attempt that fails; every instant
	// must still be retained and the error surfaced, with no time shift.
	for tk := trajectory.Tick(7); tk < 10; tk++ {
		if sealed, err := addInstant(log, nil); !errors.Is(err, boom) || len(sealed) > 0 {
			t.Fatalf("tick %d: got sealed=%v err=%v, want boom", tk, sealed, err)
		}
		if got := log.NumTicks(); got != int(tk)+1 {
			t.Fatalf("tick %d retained %d instants, want %d", tk, got, tk+1)
		}
	}
	// The next append succeeds and seals one widened slab [4, 10].
	sealedNow, err := addInstant(log, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealedNow) != 1 || sealedNow[0] != (contact.Interval{Lo: 4, Hi: 10}) {
		t.Fatalf("recovery append sealed %v, want [4, 10]", sealedNow)
	}
	sealed, _, _, numTicks := log.View()
	if numTicks != 11 {
		t.Fatalf("NumTicks = %d, want 11", numTicks)
	}
	if len(sealed) != 2 {
		t.Fatalf("%d sealed slabs, want 2", len(sealed))
	}
	if want := (contact.Interval{Lo: 4, Hi: 10}); sealed[1].Span != want {
		t.Fatalf("widened slab span %v, want %v", sealed[1].Span, want)
	}
	if sealed[1].Value != 7 {
		t.Fatalf("widened slab sealed %d ticks, want 7", sealed[1].Value)
	}
}

// sameNetwork compares two networks by their per-instant contact pairs.
func sameNetwork(a, b *contact.Network) bool {
	if a.NumObjects != b.NumObjects || a.NumTicks != b.NumTicks {
		return false
	}
	for tk := trajectory.Tick(0); int(tk) < a.NumTicks; tk++ {
		pa, pb := a.PairsAt(tk), b.PairsAt(tk)
		if len(pa) != len(pb) {
			return false
		}
		seen := make(map[stjoin.Pair]bool, len(pa))
		for _, p := range pa {
			seen[p] = true
		}
		for _, p := range pb {
			if !seen[p] {
				return false
			}
		}
	}
	return true
}
