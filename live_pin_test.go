package streach

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"streach/internal/contact"
	"streach/internal/queries"
	"streach/internal/segment"
	"streach/internal/stjoin"
)

// TestPinnedViewSurvivesPatches is the copy-on-write promise of the live
// log's pair tables, meant for -race: a reader pins one view of a live
// engine whose tail and one sealed slab are already patched, and while it
// queries that view the appender late-patches ticks inside it (in the tail,
// the dirty slab and clean slabs), appends across a seal and compacts. The
// pinned tables must keep their digest, and point and set queries on the
// pinned core must keep equalling the oracle over the pre-patch snapshot.
func TestPinnedViewSurvivesPatches(t *testing.T) {
	ds := GenerateRandomWaypoint(RWPOptions{NumObjects: 30, NumTicks: 160, Seed: 31})
	le, err := NewLiveEngine("reachgraph-mem", ds.NumObjects(), ds.Env(), ds.ContactDist(), Options{SegmentTicks: 32})
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]Point, ds.NumObjects())
	feed := func(upto int) error {
		for tk := le.NumTicks(); tk < upto; tk++ {
			for o := range positions {
				positions[o] = ds.Position(ObjectID(o), Tick(tk))
			}
			if err := le.AddInstant(positions); err != nil {
				return err
			}
		}
		return nil
	}
	// Slabs [0,31], [32,63], [64,95] sealed; the tail holds [96,99].
	if err := feed(100); err != nil {
		t.Fatal(err)
	}
	// absent returns a pair not in contact at tick tk, so adding it is a
	// late add, not a duplicate.
	absent := func(tk Tick, a ObjectID) ContactEvent {
		b := a + 1
		for le.ContactActiveAt(a, b, tk) {
			b++
		}
		return ContactEvent{Tick: tk, A: a, B: b}
	}
	if _, err := le.Ingest([]ContactEvent{absent(40, 0), absent(97, 2)}); err != nil {
		t.Fatal(err)
	}

	sealed, tailSpan, tail, numTicks := le.log.View()
	if len(sealed) != 3 || sealed[1].Overlay == nil || tail == nil {
		t.Fatalf("view: %d slabs, slab 1 overlay %v, tail %v", len(sealed), sealed[1].Overlay != nil, tail != nil)
	}
	pinned := &engine{name: "pinned", numObjects: le.numObjects, core: le.viewCore(sealed, tailSpan, tail, numTicks), numTicks: numTicks}
	digest := tablesDigest(sealed, tail)
	ref := queries.NewOracle(le.log.Snapshot())

	ctx := context.Background()
	work := RandomQueries(WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: numTicks, Count: 40, MinLen: 5, MaxLen: numTicks, Seed: 3,
	})
	check := func(when string) {
		t.Helper()
		if got := tablesDigest(sealed, tail); got != digest {
			t.Fatalf("%s: pinned tables changed (digest %x, pinned %x)", when, got, digest)
		}
		for _, q := range work {
			r, err := pinned.Reachable(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.Reachable(q); r.Reachable != want {
				t.Fatalf("%s: pinned view answers %v on %v, pre-patch oracle %v", when, r.Reachable, q, want)
			}
		}
		for src := ObjectID(0); src < 30; src += 7 {
			iv := NewInterval(Tick(src), Tick(numTicks-1))
			r, err := pinned.ReachableSet(ctx, src, iv)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.ReachableSet(src, iv)
			if !slices.Equal(r.Objects, want) {
				t.Fatalf("%s: pinned set of %d over %v: %v, pre-patch oracle %v", when, src, iv, r.Objects, want)
			}
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		retract := func(tk Tick) ContactEvent {
			for a := ObjectID(0); int(a) < ds.NumObjects(); a++ {
				for b := a + 1; int(b) < ds.NumObjects(); b++ {
					if le.ContactActiveAt(a, b, tk) {
						return ContactEvent{Tick: tk, A: a, B: b, Retract: true}
					}
				}
			}
			return ContactEvent{Tick: tk, A: 0, B: 1, Retract: true} // a miss
		}
		steps := []func() error{
			// The tail, the dirty slab and two clean slabs, patched inside
			// the pinned span.
			func() error {
				_, err := le.Ingest([]ContactEvent{absent(96, 4), retract(98), absent(97, 5)})
				return err
			},
			func() error {
				_, err := le.Ingest([]ContactEvent{absent(41, 6), retract(40), absent(10, 7), retract(70)})
				return err
			},
			func() error { return feed(140) }, // seals the pinned tail's slab
			func() error { _, err := le.Compact(); return err },
			func() error {
				_, err := le.Ingest([]ContactEvent{absent(97, 8), retract(99), absent(20, 9)})
				return err
			},
			func() error { _, err := le.Compact(); return err },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check("while patching")
	}
	wg.Wait()
	check("after patching")
	if le.NumSealedSegments() != 4 || le.Stats().Compactions == 0 {
		t.Fatalf("the appender sealed %d slabs and compacted %d times, want 4 and some", le.NumSealedSegments(), le.Stats().Compactions)
	}
}

// tablesDigest hashes every list of the view's overlay tables and tail.
func tablesDigest(sealed []segment.SlabView[sealedSlab], tail *contact.PairTable) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	tables := []*contact.PairTable{tail}
	for _, s := range sealed {
		if s.Overlay != nil {
			tables = append(tables, s.Overlay)
		}
	}
	for i, tb := range tables {
		put(i)
		tb.Snapshot(0, Tick(tb.NumTicks()-1), func(tk Tick, pairs []stjoin.Pair) bool {
			put(int(tk))
			for _, pr := range pairs {
				put(int(pr.A))
				put(int(pr.B))
			}
			return true
		})
	}
	return h.Sum64()
}
