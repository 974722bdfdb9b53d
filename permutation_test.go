// Permutation conformance of out-of-order ingestion: delivering the same
// synthetic contact-event set in tick order or in (constrained) random
// permutations — with retractions interleaved and compactions forced
// mid-stream — must be indistinguishable to every query kind at every
// delivery prefix. The only ordering a feed guarantees is causal: a
// retraction follows the add it withdraws; permutations respect exactly
// that partial order and nothing else.

package streach_test

import (
	"context"
	"math/rand"
	"testing"

	"streach"
	"streach/internal/contact"
	"streach/internal/stjoin"
)

// permScript is a contact-event set plus the partial-order constraint
// index: addOf[i] is the position (in events) of the add that retraction
// events[i] withdraws (-1 for adds).
type permScript struct {
	events []streach.ContactEvent
	addOf  []int
}

// genPermScript synthesizes ~pairsPerTick contacts per tick over
// [0, numTicks) and retracts retractFrac of them.
func genPermScript(rng *rand.Rand, numObjects, numTicks, pairsPerTick int, retractFrac float64) permScript {
	var s permScript
	for tk := 0; tk < numTicks; tk++ {
		for k := 0; k < pairsPerTick; k++ {
			a := streach.ObjectID(rng.Intn(numObjects))
			b := streach.ObjectID(rng.Intn(numObjects))
			if a == b {
				continue
			}
			add := streach.ContactEvent{Tick: streach.Tick(tk), A: a, B: b}
			s.events = append(s.events, add)
			s.addOf = append(s.addOf, -1)
			if rng.Float64() < retractFrac {
				ret := add
				ret.Retract = true
				s.events = append(s.events, ret)
				s.addOf = append(s.addOf, len(s.events)-2)
			}
		}
	}
	return s
}

// permute returns a delivery order of s respecting the causal constraint:
// every retraction lands after its add. Adds are shuffled freely; each
// retraction is then inserted at a uniform position after its add.
func permute(rng *rand.Rand, s permScript) []streach.ContactEvent {
	var order []int // positions into s.events, adds only
	for i, at := range s.addOf {
		if at == -1 {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	posOf := make(map[int]int, len(order)) // event index -> delivery slot
	out := make([]int, 0, len(s.events))
	for _, idx := range order {
		posOf[idx] = len(out)
		out = append(out, idx)
	}
	for i, at := range s.addOf {
		if at == -1 {
			continue
		}
		slot := posOf[at] + 1 + rng.Intn(len(out)-posOf[at])
		out = append(out, 0)
		copy(out[slot+1:], out[slot:])
		out[slot] = i
		for idx, p := range posOf {
			if p >= slot {
				posOf[idx] = p + 1
			}
		}
		posOf[i] = slot
	}
	events := make([]streach.ContactEvent, len(out))
	for i, idx := range out {
		events[i] = s.events[idx]
	}
	return events
}

// refState replays delivered events into per-tick membership and builds
// the in-order reference oracle over the resulting network.
type refState struct {
	numObjects int
	numTicks   int
	ticks      []map[stjoin.Pair]bool
}

func newRefState(numObjects int) *refState {
	return &refState{numObjects: numObjects}
}

func (r *refState) apply(ev streach.ContactEvent) {
	tk := int(ev.Tick)
	if ev.Retract {
		if tk < len(r.ticks) {
			delete(r.ticks[tk], stjoin.MakePair(ev.A, ev.B))
		}
		return
	}
	for len(r.ticks) <= tk {
		r.ticks = append(r.ticks, nil)
	}
	if r.ticks[tk] == nil {
		r.ticks[tk] = make(map[stjoin.Pair]bool)
	}
	r.ticks[tk][stjoin.MakePair(ev.A, ev.B)] = true
	if tk+1 > r.numTicks {
		r.numTicks = tk + 1
	}
}

func (r *refState) oracle(t *testing.T) streach.Engine {
	t.Helper()
	b := contact.NewBuilder(r.numObjects)
	var pairs []stjoin.Pair
	for tk := 0; tk < r.numTicks; tk++ {
		pairs = pairs[:0]
		if tk < len(r.ticks) {
			for pr := range r.ticks[tk] {
				pairs = append(pairs, pr)
			}
		}
		b.AddInstant(pairs)
	}
	eng, err := streach.Open("oracle", streach.WrapContactNetwork(b.Network()), streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// conformQuery is one fixed probe evaluated against both engines.
type conformQuery struct {
	src, dst streach.ObjectID
}

// assertConformant compares all four query kinds between the live engine
// and the in-order reference at the current prefix.
func assertConformant(t *testing.T, live *streach.LiveEngine, ref *refState, probes []conformQuery, label string) {
	t.Helper()
	if ref.numTicks == 0 {
		return
	}
	if got := live.NumTicks(); got != ref.numTicks {
		t.Fatalf("%s: live NumTicks %d, reference %d", label, got, ref.numTicks)
	}
	oracle := ref.oracle(t)
	ctx := context.Background()
	hi := streach.Tick(ref.numTicks - 1)
	intervals := []streach.Interval{
		streach.NewInterval(0, hi),
		streach.NewInterval(hi/2, hi),
		streach.NewInterval(hi/4, hi/2+1),
	}
	for _, iv := range intervals {
		for _, p := range probes {
			q := streach.Query{Src: p.src, Dst: p.dst, Interval: iv}
			gotR, err1 := live.Reachable(ctx, q)
			wantR, err2 := oracle.Reachable(ctx, q)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: Reachable%v errs %v / %v", label, q, err1, err2)
			}
			if gotR.Reachable != wantR.Reachable {
				t.Fatalf("%s: Reachable(%d->%d, %v) = %v, in-order oracle says %v",
					label, p.src, p.dst, iv, gotR.Reachable, wantR.Reachable)
			}

			gotA, err1 := live.Reachable(ctx, arrivalQuery(p.src, p.dst, iv))
			wantA, err2 := oracle.Reachable(ctx, arrivalQuery(p.src, p.dst, iv))
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: arrival query errs %v / %v", label, err1, err2)
			}
			if gotA.Reachable != wantA.Reachable || gotA.Arrival != wantA.Arrival {
				t.Fatalf("%s: arrival query (%d->%d, %v) = (%v, %d), want (%v, %d)",
					label, p.src, p.dst, iv, gotA.Reachable, gotA.Arrival, wantA.Reachable, wantA.Arrival)
			}
		}
		// Set and top-k sweep from the probe sources only (dst-free kinds).
		for _, p := range probes[:len(probes)/2] {
			gotS, err1 := live.ReachableSet(ctx, p.src, iv)
			wantS, err2 := oracle.ReachableSet(ctx, p.src, iv)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: ReachableSet errs %v / %v", label, err1, err2)
			}
			if len(gotS.Objects) != len(wantS.Objects) {
				t.Fatalf("%s: ReachableSet(%d, %v) sizes %d vs %d",
					label, p.src, iv, len(gotS.Objects), len(wantS.Objects))
			}
			for i := range gotS.Objects {
				if gotS.Objects[i] != wantS.Objects[i] {
					t.Fatalf("%s: ReachableSet(%d, %v)[%d] = %d, want %d",
						label, p.src, iv, i, gotS.Objects[i], wantS.Objects[i])
				}
			}

			gotK, err1 := live.TopKReachable(ctx, p.src, iv, 4, 0.5)
			wantK, err2 := oracle.TopKReachable(ctx, p.src, iv, 4, 0.5)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: TopKReachable errs %v / %v", label, err1, err2)
			}
			if len(gotK.Items) != len(wantK.Items) {
				t.Fatalf("%s: TopK(%d, %v) sizes %d vs %d",
					label, p.src, iv, len(gotK.Items), len(wantK.Items))
			}
			for i := range gotK.Items {
				g, w := gotK.Items[i], wantK.Items[i]
				if g.Object != w.Object || g.Hops != w.Hops || g.Arrival != w.Arrival || g.Weight != w.Weight {
					t.Fatalf("%s: TopK(%d, %v)[%d] = %+v, want %+v", label, p.src, iv, i, g, w)
				}
			}
		}
	}
}

// TestPermutationConformance is the out-of-order ingestion property test:
// for every live-capable backend, a contact-event set delivered in tick
// order and in random causal permutations — with a Compact mid-stream —
// answers every query kind identically to the in-order oracle at every
// delivery prefix, while concurrent readers hammer the engine (the -race
// half of the contract).
func TestPermutationConformance(t *testing.T) {
	const (
		numObjects   = 16
		numTicks     = 96
		pairsPerTick = 3
		batch        = 40
	)
	rng := rand.New(rand.NewSource(7))
	script := genPermScript(rng, numObjects, numTicks, pairsPerTick, 0.15)

	probes := make([]conformQuery, 8)
	for i := range probes {
		probes[i] = conformQuery{
			src: streach.ObjectID(rng.Intn(numObjects)),
			dst: streach.ObjectID(rng.Intn(numObjects)),
		}
	}

	inOrder := append([]streach.ContactEvent(nil), script.events...)
	deliveries := [][]streach.ContactEvent{
		inOrder,
		permute(rng, script),
		permute(rng, script),
	}
	names := []string{"in-order", "perm-1", "perm-2"}

	for _, backend := range []string{"oracle", "reachgraph-mem", "reachgraph"} {
		for d, delivery := range deliveries {
			t.Run(backend+"/"+names[d], func(t *testing.T) {
				env := streach.NewEnv(1000, 1000)
				live, err := streach.NewLiveEngine(backend, numObjects, env, 50,
					streach.Options{SegmentTicks: 16, IngestHorizon: numTicks * 2})
				if err != nil {
					t.Fatal(err)
				}

				// Concurrent readers: correctness of their answers is the
				// main loop's job; here they must just never fail or race.
				stop := make(chan struct{})
				readerErr := make(chan error, 1)
				go func() {
					defer close(readerErr)
					ctx := context.Background()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if live.NumTicks() == 0 {
							continue
						}
						iv := streach.NewInterval(0, streach.Tick(live.NumTicks()-1))
						q := streach.Query{Src: probes[i%len(probes)].src, Dst: probes[i%len(probes)].dst, Interval: iv}
						if _, err := live.Reachable(ctx, q); err != nil {
							readerErr <- err
							return
						}
					}
				}()

				ref := newRefState(numObjects)
				for off := 0; off < len(delivery); off += batch {
					end := min(off+batch, len(delivery))
					if _, err := live.Ingest(delivery[off:end]); err != nil {
						t.Fatal(err)
					}
					for _, ev := range delivery[off:end] {
						ref.apply(ev)
					}
					assertConformant(t, live, ref, probes, names[d])
					if off/batch == 2 {
						if _, err := live.Compact(); err != nil {
							t.Fatal(err)
						}
						assertConformant(t, live, ref, probes, names[d]+"/post-compact")
					}
				}
				if _, err := live.Compact(); err != nil {
					t.Fatal(err)
				}
				if st := live.Stats(); st.DeltaEvents != 0 || st.DirtySegments != 0 {
					t.Fatalf("after final Compact: %d delta events on %d dirty segments",
						st.DeltaEvents, st.DirtySegments)
				}
				assertConformant(t, live, ref, probes, names[d]+"/final")

				close(stop)
				if err := <-readerErr; err != nil {
					t.Fatalf("concurrent reader: %v", err)
				}
			})
		}
	}
}

// TestIngestValidation pins the pre-validation contract: a structurally
// bad event or an add beyond the horizon rejects the whole batch with the
// engine untouched.
func TestIngestValidation(t *testing.T) {
	env := streach.NewEnv(1000, 1000)
	live, err := streach.NewLiveEngine("oracle", 8, env, 50,
		streach.Options{SegmentTicks: 8, IngestHorizon: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Ingest([]streach.ContactEvent{{Tick: 0, A: 0, B: 1}}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		events []streach.ContactEvent
		want   error
	}{
		{"object out of range", []streach.ContactEvent{{Tick: 0, A: 0, B: 99}}, streach.ErrBadEvent},
		{"negative object", []streach.ContactEvent{{Tick: 0, A: -1, B: 1}}, streach.ErrBadEvent},
		{"self contact", []streach.ContactEvent{{Tick: 0, A: 3, B: 3}}, streach.ErrBadEvent},
		{"negative tick", []streach.ContactEvent{{Tick: -1, A: 0, B: 1}}, streach.ErrBadEvent},
		{"beyond horizon", []streach.ContactEvent{{Tick: 17, A: 0, B: 1}}, streach.ErrIngestHorizon},
		{"good then bad rejects whole batch",
			[]streach.ContactEvent{{Tick: 0, A: 2, B: 3}, {Tick: 400, A: 0, B: 1}}, streach.ErrIngestHorizon},
	}
	for _, tc := range cases {
		rep, err := live.Ingest(tc.events)
		if !errorsIs(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if rep.Applied != 0 || rep.Late != 0 || rep.Retracted != 0 || len(rep.Sealed) != 0 {
			t.Fatalf("%s: non-empty report %+v from rejected batch", tc.name, rep)
		}
	}
	if live.NumTicks() != 1 {
		t.Fatalf("rejected batches changed the domain: NumTicks = %d", live.NumTicks())
	}
	if !live.ContactActiveAt(0, 1, 0) || live.ContactActiveAt(2, 3, 0) {
		t.Fatal("rejected batch partially applied")
	}

	// A retraction is horizon-exempt (it can only ever miss out there) and
	// an unbounded horizon accepts any tick.
	if rep, err := live.Ingest([]streach.ContactEvent{{Tick: 1000, A: 0, B: 1, Retract: true}}); err != nil || rep.RetractMisses != 1 {
		t.Fatalf("future retraction: rep %+v err %v, want one miss", rep, err)
	}
	free, err := streach.NewLiveEngine("oracle", 8, env, 50,
		streach.Options{SegmentTicks: 8, IngestHorizon: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := free.Ingest([]streach.ContactEvent{{Tick: 500, A: 0, B: 1}}); err != nil || rep.Applied != 1 {
		t.Fatalf("unbounded horizon: rep %+v err %v", rep, err)
	}
	if free.NumTicks() != 501 {
		t.Fatalf("unbounded horizon NumTicks = %d, want 501", free.NumTicks())
	}
}

func errorsIs(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}
