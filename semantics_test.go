package streach_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"streach"
)

// semantics_test.go validates the temporal-semantics layer against an
// independent brute-force reference (implemented here, not shared with the
// oracle): earliest-arrival ticks, hop-bounded reachability and top-k
// transfer-decay rankings must agree on every backend that advertises the
// capability, and the fallback path must agree for the rest.

// refProfile is the reference propagation profile: per object, minimal
// transfers (-1 unreached) and earliest arrival tick.
type refProfile struct {
	hops    []int
	arrival []streach.Tick
}

// referenceProfile relaxes the contact network tick by tick — an
// implementation deliberately separate from internal/queries' oracle.
func referenceProfile(cn *streach.ContactNetwork, src streach.ObjectID, iv streach.Interval, budget int) refProfile {
	n := cn.NumObjects()
	p := refProfile{hops: make([]int, n), arrival: make([]streach.Tick, n)}
	for i := range p.hops {
		p.hops[i] = -1
		p.arrival[i] = -1
	}
	lo, hi := iv.Lo, iv.Hi
	if lo < 0 {
		lo = 0
	}
	if hi > streach.Tick(cn.NumTicks()-1) {
		hi = streach.Tick(cn.NumTicks() - 1)
	}
	if hi < lo {
		return p
	}
	if budget <= 0 {
		budget = int(^uint(0) >> 2)
	}
	p.hops[src], p.arrival[src] = 0, lo
	contacts := cn.All()
	for t := lo; t <= hi; t++ {
		var pairs [][2]streach.ObjectID
		for _, c := range contacts {
			if c.Validity.Contains(t) {
				pairs = append(pairs, [2]streach.ObjectID{c.A, c.B})
			}
		}
		for changed := true; changed; {
			changed = false
			relax := func(a, b streach.ObjectID) {
				if p.hops[a] < 0 || p.hops[a] >= budget {
					return
				}
				if p.hops[b] >= 0 && p.hops[b] <= p.hops[a]+1 {
					return
				}
				if p.hops[b] < 0 {
					p.arrival[b] = t
				}
				p.hops[b] = p.hops[a] + 1
				changed = true
			}
			for _, pr := range pairs {
				relax(pr[0], pr[1])
				relax(pr[1], pr[0])
			}
		}
	}
	return p
}

// referenceTopK ranks a reference profile exactly as TopKReachable
// documents: weight descending, arrival ascending, object ascending, src
// excluded.
func referenceTopK(p refProfile, src streach.ObjectID, k int, decay float64) []streach.Ranked {
	var items []streach.Ranked
	for o := range p.hops {
		if p.hops[o] < 0 || streach.ObjectID(o) == src {
			continue
		}
		items = append(items, streach.Ranked{
			Object:  streach.ObjectID(o),
			Hops:    p.hops[o],
			Arrival: p.arrival[o],
			Weight:  math.Pow(decay, float64(p.hops[o])),
		})
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.Object < b.Object
	})
	if len(items) > k {
		items = items[:k]
	}
	return items
}

func semanticsDataset(t testing.TB) *streach.Dataset {
	t.Helper()
	return streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 40, NumTicks: 180, Seed: 11,
	})
}

// semanticsBackends lists every registry backend plus the segmented
// variants under a deliberately odd slab width (boundaries land inside
// query intervals).
func semanticsBackends() ([]string, streach.Options) {
	names := streach.Backends()
	return names, streach.Options{SegmentTicks: 37}
}

func TestSemanticsConformance(t *testing.T) {
	ds := semanticsDataset(t)
	cn := ds.Contacts()
	names, opts := semanticsBackends()
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
		Count: 18, MinLen: 25, MaxLen: 120, Seed: 5,
	})
	ctx := context.Background()

	// hop-tracking capability per backend (native or via fallback the
	// answers must match; Native flags are checked separately).
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			e, err := streach.Open(name, ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range work {
				ref := referenceProfile(cn, q.Src, q.Interval, 0)

				// Earliest arrival.
				ar, err := e.Reachable(ctx, arrivalQuery(q.Src, q.Dst, q.Interval))
				if err != nil {
					t.Fatalf("q%d arrival query: %v", qi, err)
				}
				wantReach := ref.hops[q.Dst] >= 0
				if ar.Reachable != wantReach {
					t.Fatalf("q%d %v: arrival query reachable=%v, reference %v", qi, q, ar.Reachable, wantReach)
				}
				if wantReach && ar.Arrival != ref.arrival[q.Dst] {
					t.Fatalf("q%d %v: arrival %d, reference %d", qi, q, ar.Arrival, ref.arrival[q.Dst])
				}
				if ar.Hops >= 0 {
					// Hops are exact as of the arrival tick (chains after
					// arrival may be shorter): compare against the prefix
					// profile ending at the arrival.
					pref := referenceProfile(cn, q.Src, streach.NewInterval(q.Interval.Lo, ar.Arrival), 0)
					if ar.Hops != pref.hops[q.Dst] {
						t.Fatalf("q%d %v: hops %d, reference-at-arrival %d", qi, q, ar.Hops, pref.hops[q.Dst])
					}
				}

				// Hop-bounded reachability, tight and loose budgets.
				for _, maxHops := range []int{1, 2, 5} {
					bq := q
					bq.Semantics = streach.Semantics{MaxHops: maxHops}
					r, err := e.Reachable(ctx, bq)
					if err != nil {
						t.Fatalf("q%d hop-bounded(%d): %v", qi, maxHops, err)
					}
					bref := referenceProfile(cn, q.Src, q.Interval, maxHops)
					want := bref.hops[q.Dst] >= 0
					if r.Reachable != want {
						t.Fatalf("q%d %v maxHops=%d: got %v, reference %v", qi, q, maxHops, r.Reachable, want)
					}
					if want {
						if r.Arrival != bref.arrival[q.Dst] {
							t.Fatalf("q%d %v maxHops=%d: arrival %d, reference %d", qi, q, maxHops, r.Arrival, bref.arrival[q.Dst])
						}
						pref := referenceProfile(cn, q.Src, streach.NewInterval(q.Interval.Lo, r.Arrival), maxHops)
						if r.Hops != pref.hops[q.Dst] {
							t.Fatalf("q%d maxHops=%d: hops %d, reference-at-arrival %d", qi, maxHops, r.Hops, pref.hops[q.Dst])
						}
					}
				}

				// Plain boolean must agree with the unbounded semantic
				// answer (the two paths share ground truth).
				pr, err := e.Reachable(ctx, q)
				if err != nil {
					t.Fatalf("q%d boolean: %v", qi, err)
				}
				if pr.Reachable != wantReach {
					t.Fatalf("q%d: boolean %v disagrees with semantic reference %v", qi, pr.Reachable, wantReach)
				}
			}

			// Top-k decay on a few sources over a mid-size interval.
			iv := streach.NewInterval(20, 130)
			for src := streach.ObjectID(0); src < 6; src++ {
				ref := referenceProfile(cn, src, iv, 0)
				want := referenceTopK(ref, src, 7, 0.7)
				got, err := e.TopKReachable(ctx, src, iv, 7, 0.7)
				if err != nil {
					t.Fatalf("TopK src=%d: %v", src, err)
				}
				if len(got.Items) != len(want) {
					t.Fatalf("TopK src=%d: %d items, reference %d", src, len(got.Items), len(want))
				}
				for i := range want {
					if got.Items[i] != want[i] {
						t.Fatalf("TopK src=%d item %d: got %+v, reference %+v", src, i, got.Items[i], want[i])
					}
				}
			}
		})
	}
}

// TestSemanticsNativeMatrix pins which backends answer each semantics
// class natively and which fall back to the oracle.
func TestSemanticsNativeMatrix(t *testing.T) {
	ds := semanticsDataset(t)
	_, opts := semanticsBackends()
	ctx := context.Background()
	iv := streach.NewInterval(10, 90)

	arrivalNative := map[string]bool{
		"oracle": true, "reachgrid": true,
		"reachgraph": true, "reachgraph-mem": true,
		"segmented:oracle": true, "segmented:reachgrid": true,
		"segmented:reachgraph": true, "segmented:reachgraph-mem": true,
		// Bidirectional planning covers boolean point queries only; the
		// semantics layer routes through the same forward planner as the
		// segmented backends, so native-ness matches them.
		"bidir:oracle": true, "bidir:reachgraph": true, "bidir:reachgraph-mem": true,
		// The scatter-gather relaxation exchanges exact arrival ticks
		// across the shard cut, so arrival queries stay native; hop
		// tracking does not compose across shards and falls back.
		"shard:1:reachgraph": true, "shard:2:reachgraph": true, "shard:4:reachgraph": true,
		"shard:1:spatial:reachgraph": true, "shard:2:spatial:reachgraph": true, "shard:4:spatial:reachgraph": true,
	}
	hopNative := map[string]bool{
		"oracle": true, "reachgrid": true,
		"segmented:oracle": true, "segmented:reachgrid": true,
		"bidir:oracle": true,
	}
	for _, name := range streach.Backends() {
		e, err := streach.Open(name, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := e.Reachable(ctx, arrivalQuery(0, 1, iv))
		if err != nil {
			t.Fatal(err)
		}
		if want := arrivalNative[name]; ar.Native != want {
			t.Errorf("%s: arrival query native=%v, want %v", name, ar.Native, want)
		}
		tk, err := e.TopKReachable(ctx, 0, iv, 3, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if want := hopNative[name]; tk.Native != want {
			t.Errorf("%s: TopKReachable native=%v, want %v", name, tk.Native, want)
		}
		hb, err := e.Reachable(ctx, streach.Query{Src: 0, Dst: 1, Interval: iv,
			Semantics: streach.Semantics{MaxHops: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if want := hopNative[name]; hb.Native != want {
			t.Errorf("%s: hop-bounded native=%v, want %v", name, hb.Native, want)
		}
	}
}

// TestSemanticsLiveEngine replays the dataset into LiveEngines and checks
// the semantic answers over the ingested feed against the reference.
func TestSemanticsLiveEngine(t *testing.T) {
	ds := semanticsDataset(t)
	cn := ds.Contacts()
	ctx := context.Background()
	for _, base := range []string{"oracle", "reachgraph-mem", "reachgraph"} {
		base := base
		t.Run(base, func(t *testing.T) {
			le, err := streach.NewLiveEngine(base, ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{SegmentTicks: 37})
			if err != nil {
				t.Fatal(err)
			}
			positions := make([]streach.Point, ds.NumObjects())
			for tk := 0; tk < ds.NumTicks(); tk++ {
				for o := range positions {
					positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
				}
				if err := le.AddInstant(positions); err != nil {
					t.Fatal(err)
				}
			}
			iv := streach.NewInterval(15, 140)
			for src := streach.ObjectID(0); src < 5; src++ {
				ref := referenceProfile(cn, src, iv, 0)
				for dst := streach.ObjectID(0); dst < streach.ObjectID(ds.NumObjects()); dst += 7 {
					ar, err := le.Reachable(ctx, arrivalQuery(src, dst, iv))
					if err != nil {
						t.Fatal(err)
					}
					wantReach := ref.hops[dst] >= 0
					if src == dst {
						wantReach = true
					}
					if ar.Reachable != wantReach {
						t.Fatalf("src=%d dst=%d: reachable %v, reference %v", src, dst, ar.Reachable, wantReach)
					}
					if ar.Reachable && dst != src && ar.Arrival != ref.arrival[dst] {
						t.Fatalf("src=%d dst=%d: arrival %d, reference %d", src, dst, ar.Arrival, ref.arrival[dst])
					}
				}
				want := referenceTopK(ref, src, 5, 0.8)
				got, err := le.TopKReachable(ctx, src, iv, 5, 0.8)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got.Items) != fmt.Sprint(want) {
					t.Fatalf("src=%d: top-k %v, reference %v", src, got.Items, want)
				}
				// Hop-bounded point queries route through the semantics
				// layer on LiveEngine too.
				for _, maxHops := range []int{1, 3} {
					bref := referenceProfile(cn, src, iv, maxHops)
					for dst := streach.ObjectID(0); dst < streach.ObjectID(ds.NumObjects()); dst += 11 {
						r, err := le.Reachable(ctx, streach.Query{Src: src, Dst: dst, Interval: iv,
							Semantics: streach.Semantics{MaxHops: maxHops}})
						if err != nil {
							t.Fatal(err)
						}
						if want := bref.hops[dst] >= 0; r.Reachable != want {
							t.Fatalf("src=%d dst=%d maxHops=%d: got %v, reference %v",
								src, dst, maxHops, r.Reachable, want)
						}
					}
				}
			}
		})
	}
}
