package stjoin

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"streach/internal/geo"
)

func bruteForcePairs(pts []geo.Point, dT float64) map[[2]int]bool {
	out := make(map[[2]int]bool)
	for i := range pts {
		for k := i + 1; k < len(pts); k++ {
			if pts[i].Dist(pts[k]) <= dT {
				out[[2]int{i, k}] = true
			}
		}
	}
	return out
}

func TestJoinMatchesBruteForce(t *testing.T) {
	env := geo.NewRect(geo.Point{}, geo.Point{X: 1000, Y: 800})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		dT := 5 + rng.Float64()*100
		j := NewJoiner(env, dT)
		n := 1 + rng.Intn(200)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 800}
		}
		want := bruteForcePairs(pts, dT)
		got := make(map[[2]int]bool)
		j.Join(pts, func(a, b int) bool {
			key := [2]int{a, b}
			if got[key] {
				t.Fatalf("duplicate pair %v", key)
			}
			got[key] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d (dT=%.1f, n=%d): got %d pairs, want %d", trial, dT, n, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("missing pair %v", k)
			}
		}
	}
}

func TestJoinEarlyStop(t *testing.T) {
	env := geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100})
	j := NewJoiner(env, 50)
	pts := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	calls := 0
	j.Join(pts, func(a, b int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
	// The joiner must be reusable after an aborted join.
	total := 0
	j.Join(pts, func(a, b int) bool { total++; return true })
	if total != 6 {
		t.Fatalf("join after abort found %d pairs, want 6", total)
	}
}

func TestJoinerReuseIsClean(t *testing.T) {
	env := geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100})
	j := NewJoiner(env, 10)
	a := []geo.Point{{X: 5, Y: 5}, {X: 6, Y: 6}}
	count := 0
	j.Join(a, func(int, int) bool { count++; return true })
	if count != 1 {
		t.Fatalf("first join = %d pairs", count)
	}
	// A second call with far-apart points must see none of the first call's
	// points.
	b := []geo.Point{{X: 90, Y: 90}}
	count = 0
	j.Join(b, func(int, int) bool { count++; return true })
	if count != 0 {
		t.Fatalf("stale state: %d pairs", count)
	}
}

// TestJoinAndSpreadShareOneTable interleaves the two walks on one Joiner:
// a Spread leaves the table with carriers complemented and cold points
// unlinked, an aborted Join leaves it half walked, and the next call of
// either kind must see only its own points.
func TestJoinAndSpreadShareOneTable(t *testing.T) {
	env := geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100})
	j := NewJoiner(env, 10)
	chain := []geo.Point{{X: 5, Y: 5}, {X: 12, Y: 5}, {X: 19, Y: 5}, {X: 60, Y: 60}}
	far := []geo.Point{{X: 90, Y: 90}, {X: 5, Y: 5}}
	pairs := func(pts []geo.Point) (n int) {
		j.Join(pts, func(int, int) bool { n++; return true })
		return n
	}
	for round := 0; round < 3; round++ {
		if got := j.Spread(chain, []int32{0}); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("round %d: spread from 0 = %v, want [0 1 2]", round, got)
		}
		if n := pairs(chain); n != 2 {
			t.Fatalf("round %d: join after spread found %d pairs, want 2", round, n)
		}
		if got := j.Spread(far, []int32{1}); len(got) != 1 {
			t.Fatalf("round %d: spread over far points = %v: stale points of the earlier cloud", round, got)
		}
		j.Join(chain, func(int, int) bool { return false }) // aborted
		if got := j.Spread(chain, []int32{3}); len(got) != 1 {
			t.Fatalf("round %d: spread from the isolated point = %v", round, got)
		}
		if got := j.Spread(chain, nil); len(got) != 0 {
			t.Fatalf("round %d: spread without carriers = %v", round, got)
		}
		if n := pairs(far); n != 0 {
			t.Fatalf("round %d: join over far points found %d pairs", round, n)
		}
	}
}

// TestJoinEmissionOrderPinned holds Join to the order its callers were
// written against — cells by first appearance, points of a cell ascending —
// on a fixed cloud with points outside the environment: the digest was
// recorded when cells were slices of indices, before the compact table.
func TestJoinEmissionOrderPinned(t *testing.T) {
	env := geo.NewRect(geo.Point{}, geo.Point{X: 400, Y: 300})
	rng := rand.New(rand.NewSource(20260929))
	pts := make([]geo.Point, 300)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64()*440 - 20, Y: rng.Float64()*340 - 20}
	}
	j := NewJoiner(env, 17)
	h := fnv.New64a()
	n := 0
	j.Join(pts, func(a, b int) bool {
		fmt.Fprintf(h, "%d,%d;", a, b)
		n++
		return true
	})
	if n != 298 || h.Sum64() != 0x1abaf35e9bb04d2d {
		t.Fatalf("emitted %d pairs with digest %#x, recorded 298 and 0x1abaf35e9bb04d2d", n, h.Sum64())
	}
}

func TestJoinTinyEnvironment(t *testing.T) {
	// dT larger than the environment: single bucket, all pairs compared.
	env := geo.NewRect(geo.Point{}, geo.Point{X: 10, Y: 10})
	j := NewJoiner(env, 100)
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 10}, {X: 5, Y: 5}}
	count := 0
	j.Join(pts, func(int, int) bool { count++; return true })
	if count != 3 {
		t.Fatalf("got %d pairs, want 3", count)
	}
}

func TestMakePair(t *testing.T) {
	if MakePair(5, 2) != (Pair{A: 2, B: 5}) {
		t.Error("MakePair should normalize order")
	}
	if MakePair(2, 5) != (Pair{A: 2, B: 5}) {
		t.Error("MakePair changed ordered input")
	}
}

func benchCloud() (*Joiner, []geo.Point) {
	env := geo.NewRect(geo.Point{}, geo.Point{X: 3162, Y: 3162}) // 10 km², 100/km²
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, 1000)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 3162, Y: rng.Float64() * 3162}
	}
	return NewJoiner(env, 25), pts
}

func BenchmarkJoin1000(b *testing.B) {
	j, pts := benchCloud()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Join(pts, func(int, int) bool { return true })
	}
}

// BenchmarkSpread1000 is the same cloud with every fifth point a carrier,
// the share of the buffer a grid-point sweep finds infected.
func BenchmarkSpread1000(b *testing.B) {
	j, pts := benchCloud()
	hot := make([]int32, 0, len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hot = hot[:0]
		for k := 0; k < len(pts); k += 5 {
			hot = append(hot, int32(k))
		}
		hot = j.Spread(pts, hot)
	}
}
