package segment

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streach/internal/contact"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// FuzzLogEvents drives a Log and a reference model through one script
// derived from the fuzz bytes — frontier appends with gaps, late adds and
// retractions into the tail and into sealed slabs, duplicates, misses,
// retractions beyond the frontier, manual and threshold compaction, and
// failing builds — and after every step requires the two to agree on the
// step's ApplyResult, the counters, every view (per-tick content, overlays,
// Pending), ActiveAt, Snapshot, and every network handed to the build
// callback. The model keeps one pair set per tick and applies events by the
// rules of the network-patching ingest path the pair tables replaced, so
// the sealed and compacted networks are held to what that path built.
//
// Script bytes: objects, width, then operations, each an opcode byte and
// its arguments (see logScript.step).
func FuzzLogEvents(f *testing.F) {
	for _, seed := range logSeeds() {
		f.Add(seed)
	}
	f.Fuzz(logEvents)
}

// TestLogEventsSeeded is FuzzLogEvents' body over scripts drawn from a
// fixed seed, 2–257 random bytes each: 2000 cases, 200 under -short.
func TestLogEventsSeeded(t *testing.T) {
	cases := 2000
	if testing.Short() {
		cases = 200
	}
	rng := rand.New(rand.NewSource(20261019))
	for i := 0; i < cases; i++ {
		script := make([]byte, 2+rng.Intn(256))
		rng.Read(script)
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("case %d: logEvents(%v)", i, script)
				}
			}()
			logEvents(t, script)
		}()
	}
}

func logEvents(t *testing.T, script []byte) {
	s := newLogScript(t, script)
	for step := 0; step < 64 && s.more(); step++ {
		s.step(step)
	}
}

var errBuild = errors.New("injected build failure")

// builtNet is one call of a build callback: the span and the network.
type builtNet struct {
	span contact.Interval
	net  *contact.Network
}

// logModel is the reference: the effective pair set of every tick, the
// sealed spans with their pending delta depths, and the counters.
type logModel struct {
	numObjects, width int
	ticks             []map[stjoin.Pair]bool
	tailStart         int
	spans             []contact.Interval
	pending           []int
	counters          Counters
	failNext          bool
	builds            []builtNet
}

// build records the network the parent path handed its callback — a
// Builder pass over the span's effective instants — and fails when asked.
func (m *logModel) build(span contact.Interval) error {
	m.builds = append(m.builds, builtNet{span, m.network(span)})
	if m.failNext {
		m.failNext = false
		return errBuild
	}
	return nil
}

// network is the slab-local network of span.
func (m *logModel) network(span contact.Interval) *contact.Network {
	b := contact.NewBuilder(m.numObjects)
	for t := span.Lo; t <= span.Hi; t++ {
		b.AddInstant(sortedPairs(m.ticks[t]))
	}
	return b.Network()
}

func (m *logModel) appendInstant(pairs []stjoin.Pair, res *ApplyResult) (int, error) {
	t := len(m.ticks)
	set := map[stjoin.Pair]bool{}
	for _, pr := range pairs {
		set[pr] = true
	}
	m.ticks = append(m.ticks, set)
	res.Changed = appendChangedTick(res.Changed, trajectory.Tick(t))
	if len(m.ticks)-m.tailStart < m.width {
		return len(set), nil
	}
	span := contact.Interval{Lo: trajectory.Tick(m.tailStart), Hi: trajectory.Tick(len(m.ticks) - 1)}
	if err := m.build(span); err != nil {
		return len(set), err
	}
	m.spans = append(m.spans, span)
	m.pending = append(m.pending, 0)
	m.tailStart = len(m.ticks)
	res.Sealed = append(res.Sealed, span)
	return len(set), nil
}

func (m *logModel) advanceTo(numTicks int) (ApplyResult, error) {
	var res ApplyResult
	for len(m.ticks) < numTicks {
		if _, err := m.appendInstant(nil, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

func (m *logModel) ingest(events []contact.Event, threshold int) (ApplyResult, error) {
	var res ApplyResult
	if len(events) == 0 {
		return res, nil
	}
	frontier := trajectory.Tick(len(m.ticks))
	fast := true
	for _, ev := range events {
		fast = fast && !ev.Retract && !ev.Mirror && ev.Tick == frontier
	}
	if fast {
		pairs := make([]stjoin.Pair, len(events))
		for i, ev := range events {
			pairs[i] = stjoin.MakePair(ev.A, ev.B)
		}
		applied, err := m.appendInstant(pairs, &res)
		res.Frontier, res.Duplicates = applied, len(events)-applied
		m.counters.Duplicates += int64(res.Duplicates)
		return res, err
	}
	sorted := slices.Clone(events)
	slices.SortStableFunc(sorted, func(x, y contact.Event) int { return cmp.Compare(x.Tick, y.Tick) })
	var err error
	for i := 0; i < len(sorted) && err == nil; {
		j := i
		for j < len(sorted) && sorted[j].Tick == sorted[i].Tick {
			j++
		}
		t, group := sorted[i].Tick, sorted[i:j]
		i = j
		if int(t) >= len(m.ticks) {
			err = m.frontierGroup(t, group, &res)
			continue
		}
		// A late group: the tick's set is patched in slice order.
		set, kept := m.ticks[t], 0
		for _, ev := range group {
			pr := stjoin.MakePair(ev.A, ev.B)
			tally := tallyOf(ev, &res)
			switch {
			case !ev.Retract && set[pr]:
				tally.Duplicates++
			case !ev.Retract:
				set[pr] = true
				tally.Late++
				kept++
			case set[pr]:
				delete(set, pr)
				tally.Retracted++
				kept++
			default:
				tally.RetractMisses++
			}
		}
		if kept == 0 {
			continue
		}
		res.Changed = appendChangedTick(res.Changed, t)
		if k := m.slabOf(t); k < len(m.spans) {
			m.pending[k] += kept
		}
	}
	m.counters.LateApplied += int64(res.Late)
	m.counters.Retractions += int64(res.Retracted)
	m.counters.Duplicates += int64(res.Duplicates)
	m.counters.RetractMisses += int64(res.RetractMisses)
	if err != nil {
		return res, err
	}
	if threshold > 0 {
		res.Compacted, err = m.compact(threshold)
	}
	return res, err
}

func (m *logModel) frontierGroup(t trajectory.Tick, group []contact.Event, res *ApplyResult) error {
	set := map[stjoin.Pair]bool{}
	anyAdd := false
	for _, ev := range group {
		pr := stjoin.MakePair(ev.A, ev.B)
		tally := tallyOf(ev, res)
		switch {
		case !ev.Retract && set[pr]:
			tally.Duplicates++
		case !ev.Retract:
			set[pr] = true
			anyAdd = true
			tally.Frontier++
		case set[pr]:
			delete(set, pr)
			tally.Retracted++
		default:
			tally.RetractMisses++
		}
	}
	if !anyAdd {
		return nil
	}
	for len(m.ticks) < int(t) {
		if _, err := m.appendInstant(nil, res); err != nil {
			return err
		}
	}
	_, err := m.appendInstant(slices.Collect(maps.Keys(set)), res)
	return err
}

// tallyOf is where the model counts ev's outcome: res, or nowhere for a
// mirrored copy.
func tallyOf(ev contact.Event, res *ApplyResult) *ApplyResult {
	if ev.Mirror {
		return new(ApplyResult)
	}
	return res
}

func (m *logModel) compact(threshold int) (int, error) {
	n := 0
	for k := range m.spans {
		if m.pending[k] == 0 || m.pending[k] < threshold {
			continue
		}
		if err := m.build(m.spans[k]); err != nil {
			return n, err
		}
		m.pending[k] = 0
		m.counters.Compactions++
		n++
	}
	return n, nil
}

// slabOf returns the sealed slab holding t, or len(spans) for the tail.
func (m *logModel) slabOf(t trajectory.Tick) int {
	k, _ := slices.BinarySearchFunc(m.spans, t, func(s contact.Interval, t trajectory.Tick) int {
		return cmp.Compare(s.Hi, t)
	})
	return k
}

// snapshot is the cumulative network the parent path's Snapshot built:
// each slab's network shifted to global ticks, concatenated with the
// tail's.
func (m *logModel) snapshot() *contact.Network {
	var all []contact.Contact
	spans := slices.Clone(m.spans)
	if m.tailStart < len(m.ticks) {
		spans = append(spans, contact.Interval{Lo: trajectory.Tick(m.tailStart), Hi: trajectory.Tick(len(m.ticks) - 1)})
	}
	for _, span := range spans {
		for _, c := range m.network(span).Contacts {
			c.Validity.Lo += span.Lo
			c.Validity.Hi += span.Lo
			all = append(all, c)
		}
	}
	return contact.FromContacts(m.numObjects, len(m.ticks), all)
}

func sortedPairs(set map[stjoin.Pair]bool) []stjoin.Pair {
	out := slices.Collect(maps.Keys(set))
	slices.SortFunc(out, func(x, y stjoin.Pair) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return out
}

// logScript runs one decoded script against a log and the model.
type logScript struct {
	t        *testing.T
	bytes    []byte
	log      *Log[*contact.Network]
	model    *logModel
	failNext bool
	builds   []builtNet
	last     []contact.Event // the last general batch, for replays
}

func newLogScript(t *testing.T, script []byte) *logScript {
	s := &logScript{t: t, bytes: script}
	numObjects := 2 + int(s.next())%7
	width := 1 + int(s.next())%16
	s.model = &logModel{numObjects: numObjects, width: width}
	s.log = NewLog(numObjects, width, func(span contact.Interval, net *contact.Network) (*contact.Network, error) {
		s.builds = append(s.builds, builtNet{span, net})
		if s.failNext {
			s.failNext = false
			return nil, errBuild
		}
		return net, nil
	})
	return s
}

func (s *logScript) more() bool { return len(s.bytes) > 0 }

func (s *logScript) next() byte {
	if len(s.bytes) == 0 {
		return 0
	}
	b := s.bytes[0]
	s.bytes = s.bytes[1:]
	return b
}

// pair decodes one byte p into a pair of distinct objects: p%n and
// (p/n)%n, the second bumped when they coincide.
func (s *logScript) pair() (trajectory.ObjectID, trajectory.ObjectID) {
	n := s.model.numObjects
	p := int(s.next())
	a, b := p%n, (p/n)%n
	if a == b {
		b = (a + 1) % n
	}
	return trajectory.ObjectID(a), trajectory.ObjectID(b)
}

// step decodes and runs one operation:
//
//	0 k p×k        k%8 contacts at the frontier as one batch, then the clock
//	               advanced over the instant (how the engine appends)
//	1 k c (t p f)×(1+k%6)
//	               a general batch with compaction threshold c%4: each event
//	               at tick t % (NumTicks + 4·width + 2), a retraction when f
//	               is odd, a mirrored copy when f&2 is set
//	2 d            AdvanceTo(NumTicks + 1 + d % (2·width))
//	3              Compact
//	4              the next build fails
//	5 f            the last general batch again, every event's Retract
//	               flipped when f is odd
func (s *logScript) step(step int) {
	frontier := len(s.model.ticks)
	switch op := s.next() % 6; op {
	case 0:
		evs := make([]contact.Event, s.next()%8)
		for i := range evs {
			a, b := s.pair()
			evs[i] = contact.Event{Tick: trajectory.Tick(frontier), A: a, B: b}
		}
		s.ingest(step, evs, 0)
		s.advance(step, frontier+1)
	case 1:
		evs := make([]contact.Event, 1+s.next()%6)
		threshold := int(s.next() % 4)
		bound := frontier + 4*s.model.width + 2
		for i := range evs {
			tick := trajectory.Tick(int(s.next()) % bound)
			a, b := s.pair()
			f := s.next()
			evs[i] = contact.Event{Tick: tick, A: a, B: b, Retract: f%2 == 1, Mirror: f&2 != 0}
		}
		s.last = evs
		s.ingest(step, evs, threshold)
	case 2:
		s.advance(step, frontier+1+int(s.next())%(2*s.model.width))
	case 3:
		n, err := s.log.Compact()
		wn, werr := s.model.compact(0)
		if n != wn || !errors.Is(err, werr) {
			s.t.Fatalf("step %d Compact: (%d, %v), model (%d, %v)", step, n, err, wn, werr)
		}
	case 4:
		s.failNext, s.model.failNext = true, true
	case 5:
		flip := s.next()%2 == 1
		evs := slices.Clone(s.last)
		for i := range evs {
			evs[i].Retract = evs[i].Retract != flip
		}
		s.ingest(step, evs, 0)
	}
	s.check(step)
}

func (s *logScript) ingest(step int, evs []contact.Event, threshold int) {
	got, err := s.log.IngestEvents(evs, threshold)
	want, werr := s.model.ingest(evs, threshold)
	s.sameResult(fmt.Sprintf("step %d IngestEvents(%v, %d)", step, evs, threshold), got, err, want, werr)
}

func (s *logScript) advance(step, numTicks int) {
	got, err := s.log.AdvanceTo(numTicks)
	want, werr := s.model.advanceTo(numTicks)
	s.sameResult(fmt.Sprintf("step %d AdvanceTo(%d)", step, numTicks), got, err, want, werr)
}

func (s *logScript) sameResult(what string, got ApplyResult, err error, want ApplyResult, werr error) {
	s.t.Helper()
	if !errors.Is(err, werr) {
		s.t.Fatalf("%s: error %v, model %v", what, err, werr)
	}
	if got.Frontier != want.Frontier || got.Late != want.Late || got.Retracted != want.Retracted ||
		got.Duplicates != want.Duplicates || got.RetractMisses != want.RetractMisses ||
		got.Compacted != want.Compacted || !slices.Equal(got.Sealed, want.Sealed) || !slices.Equal(got.Changed, want.Changed) {
		s.t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// check compares every observable of the log with the model.
func (s *logScript) check(step int) {
	t, m := s.t, s.model
	if got := s.log.Counters(); got != m.counters {
		t.Fatalf("step %d: Counters %+v, model %+v", step, got, m.counters)
	}
	if len(s.builds) != len(m.builds) {
		t.Fatalf("step %d: %d builds, model %d", step, len(s.builds), len(m.builds))
	}
	for i, b := range s.builds {
		w := m.builds[i]
		if b.span != w.span || !sameContacts(b.net, w.net) {
			t.Fatalf("step %d: build %d of %v differs from the parent path's network of %v", step, i, b.span, w.span)
		}
	}

	slabs, tailSpan, tail, numTicks := s.log.View()
	if numTicks != len(m.ticks) || len(slabs) != len(m.spans) {
		t.Fatalf("step %d: View has %d slabs over %d ticks, model %d over %d", step, len(slabs), numTicks, len(m.spans), len(m.ticks))
	}
	for k, sv := range slabs {
		if sv.Span != m.spans[k] || sv.Pending != m.pending[k] || (sv.Overlay != nil) != (m.pending[k] > 0) {
			t.Fatalf("step %d slab %d: span %v pending %d overlay %v, model span %v pending %d",
				step, k, sv.Span, sv.Pending, sv.Overlay != nil, m.spans[k], m.pending[k])
		}
		for tk := sv.Span.Lo; tk <= sv.Span.Hi; tk++ {
			var got []stjoin.Pair
			if sv.Overlay != nil {
				got = sv.Overlay.PairsAt(tk - sv.Span.Lo)
			} else {
				got = sortedPairs(setOf(sv.Value.PairsAt(tk - sv.Span.Lo)))
			}
			if want := sortedPairs(m.ticks[tk]); !slices.Equal(got, want) {
				t.Fatalf("step %d slab %d tick %d: %v, model %v", step, k, tk, got, want)
			}
		}
	}
	if (tail != nil) != (m.tailStart < len(m.ticks)) {
		t.Fatalf("step %d: tail present %v, model tail [%d, %d)", step, tail != nil, m.tailStart, len(m.ticks))
	}
	if tail != nil {
		if tailSpan != (contact.Interval{Lo: trajectory.Tick(m.tailStart), Hi: trajectory.Tick(len(m.ticks) - 1)}) {
			t.Fatalf("step %d: tail span %v, model starts at %d", step, tailSpan, m.tailStart)
		}
		for tk := tailSpan.Lo; tk <= tailSpan.Hi; tk++ {
			if got, want := tail.PairsAt(tk-tailSpan.Lo), sortedPairs(m.ticks[tk]); !slices.Equal(got, want) {
				t.Fatalf("step %d tail tick %d: %v, model %v", step, tk, got, want)
			}
		}
	}

	// ActiveAt: one pair at every tick (and just past the frontier), every
	// pair at one tick.
	n := m.numObjects
	a := trajectory.ObjectID(step % n)
	b := trajectory.ObjectID((step/n + 1 + step) % n)
	for tk := 0; tk <= len(m.ticks) && a != b; tk++ {
		s.activeAt(step, a, b, trajectory.Tick(tk))
	}
	if len(m.ticks) > 0 {
		tk := trajectory.Tick(step % len(m.ticks))
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				s.activeAt(step, trajectory.ObjectID(x), trajectory.ObjectID(y), tk)
			}
		}
	}

	if !sameContacts(s.log.Snapshot(), m.snapshot()) {
		t.Fatalf("step %d: Snapshot differs from the parent path's", step)
	}
}

func (s *logScript) activeAt(step int, a, b trajectory.ObjectID, tk trajectory.Tick) {
	want := int(tk) < len(s.model.ticks) && s.model.ticks[tk][stjoin.MakePair(a, b)]
	if got := s.log.ActiveAt(b, a, tk); got != want {
		s.t.Fatalf("step %d: ActiveAt(%d, %d, %d) = %v, model %v", step, b, a, tk, got, want)
	}
}

func setOf(pairs []stjoin.Pair) map[stjoin.Pair]bool {
	set := make(map[stjoin.Pair]bool, len(pairs))
	for _, pr := range pairs {
		set[pr] = true
	}
	return set
}

// sameContacts reports whether two networks are identical contact for
// contact — what an index built from either would store.
func sameContacts(a, b *contact.Network) bool {
	return a.NumObjects == b.NumObjects && a.NumTicks == b.NumTicks &&
		a.ContactInstants() == b.ContactInstants() && reflect.DeepEqual(a.Contacts, b.Contacts)
}

// logSeeds are the scripts of delta_test.go's and segment_test.go's
// scenarios, plus failing builds around a seal and a compaction.
func logSeeds() [][]byte {
	rolling := func(sc *seedScript, from, to int) {
		for tk := from; tk < to; tk++ {
			var pairs [][2]int
			for _, pr := range pairsAt(sc.objects, trajectory.Tick(tk)) {
				pairs = append(pairs, [2]int{int(pr.A), int(pr.B)})
			}
			sc.append(pairs...)
		}
	}
	type ev = seedEvent
	var seeds [][]byte

	// TestDeltaLateAndRetract.
	sc := newSeedScript(8, 16)
	rolling(sc, 0, 40)
	sc.batch(0, ev{5, 0, 7, false}, ev{35, 7, 0, false}, ev{6, 0, 1, true},
		ev{4, 0, 1, false}, ev{20, 0, 7, true}, ev{100, 2, 3, true})
	sc.replay(true)
	seeds = append(seeds, sc.bytes())

	// TestDeltaCompaction.
	sc = newSeedScript(8, 16)
	rolling(sc, 0, 48)
	sc.batch(0, ev{2, 0, 7, false}, ev{3, 0, 7, false}, ev{20, 0, 7, false})
	sc.batch(2, ev{21, 0, 7, false})
	sc.compact()
	sc.batch(0, ev{40, 0, 7, false})
	sc.compact()
	seeds = append(seeds, sc.bytes())

	// TestEventFrontierGap.
	sc = newSeedScript(4, 8)
	sc.batch(0, ev{19, 0, 1, false}, ev{19, 0, 1, false})
	sc.advance(4)
	seeds = append(seeds, sc.bytes())

	// TestSealAbsorbsTailLateEvents.
	sc = newSeedScript(4, 8)
	rolling(sc, 0, 4)
	sc.batch(0, ev{1, 0, 3, false})
	rolling(sc, 4, 8)
	seeds = append(seeds, sc.bytes())

	// TestEventFastPathMatchesAddInstant's general path: each instant's
	// adds plus a retraction that matches nothing.
	sc = newSeedScript(8, 16)
	for tk := 0; tk < 20; tk++ {
		var evs []seedEvent
		for _, pr := range pairsAt(8, trajectory.Tick(tk)) {
			evs = append(evs, ev{tk, int(pr.A), int(pr.B), false})
		}
		sc.batch(0, append(evs, ev{tk, 0, 7, true})...)
	}
	seeds = append(seeds, sc.bytes())

	// TestLogBuildErrorSurfaces, then a compaction that fails once.
	sc = newSeedScript(4, 4)
	rolling(sc, 0, 7)
	sc.fail()
	rolling(sc, 7, 9)
	sc.batch(0, ev{1, 0, 3, false}, ev{2, 0, 1, true})
	sc.fail()
	sc.compact()
	sc.compact()
	seeds = append(seeds, sc.bytes())
	return seeds
}

// seedScript encodes a script in the decoder's byte format.
type seedScript struct {
	objects int
	out     []byte
}

type seedEvent struct {
	tick, a, b int
	retract    bool
}

func newSeedScript(objects, width int) *seedScript {
	return &seedScript{objects: objects, out: []byte{byte(objects - 2), byte(width - 1)}}
}

func (sc *seedScript) pair(a, b int) byte { return byte(a + sc.objects*b) }

func (sc *seedScript) append(pairs ...[2]int) {
	sc.out = append(sc.out, 0, byte(len(pairs)))
	for _, pr := range pairs {
		sc.out = append(sc.out, sc.pair(pr[0], pr[1]))
	}
}

// batch encodes a general batch; each tick must lie below the decoder's
// bound at the point of the script where the batch runs.
func (sc *seedScript) batch(threshold int, evs ...seedEvent) {
	sc.out = append(sc.out, 1, byte(len(evs)-1), byte(threshold))
	for _, e := range evs {
		f := byte(0)
		if e.retract {
			f = 1
		}
		sc.out = append(sc.out, byte(e.tick), sc.pair(e.a, e.b), f)
	}
}

func (sc *seedScript) advance(d int) { sc.out = append(sc.out, 2, byte(d)) }
func (sc *seedScript) compact()      { sc.out = append(sc.out, 3) }
func (sc *seedScript) fail()         { sc.out = append(sc.out, 4) }

func (sc *seedScript) replay(flip bool) {
	f := byte(0)
	if flip {
		f = 1
	}
	sc.out = append(sc.out, 5, f)
}

func (sc *seedScript) bytes() []byte { return sc.out }
