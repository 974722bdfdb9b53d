package stjoin

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"streach/internal/geo"
)

// TestQuickJoinMatchesBruteForce compares the grid-hash join against the
// O(n²) scan for arbitrary point clouds, including points outside the
// nominal environment (the joiner clamps them into boundary cells).
func TestQuickJoinMatchesBruteForce(t *testing.T) {
	env := geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100})
	f := func(raw []uint16, dtRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		dT := 1 + float64(dtRaw%40)
		pts := make([]geo.Point, len(raw)/2)
		for i := range pts {
			pts[i] = geo.Point{
				X: float64(raw[2*i]%120) - 10, // some points outside env
				Y: float64(raw[2*i+1]%120) - 10,
			}
		}
		j := NewJoiner(env, dT)
		var got [][2]int
		j.Join(pts, func(a, b int) bool {
			got = append(got, [2]int{a, b})
			return true
		})
		var want [][2]int
		for a := 0; a < len(pts); a++ {
			for b := a + 1; b < len(pts); b++ {
				if pts[a].Dist2(pts[b]) <= dT*dT {
					want = append(want, [2]int{a, b})
				}
			}
		}
		sortPairs(got)
		sortPairs(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func sortPairs(ps [][2]int) {
	sort.Slice(ps, func(i, k int) bool {
		if ps[i][0] != ps[k][0] {
			return ps[i][0] < ps[k][0]
		}
		return ps[i][1] < ps[k][1]
	})
}

// closure is the reference for Spread: union-find over Join's pairs, then
// every cold point whose component holds a hot one, ascending.
func closure(j *Joiner, pts []geo.Point, hot []int32) []int32 {
	parent := make([]int, len(pts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	j.Join(pts, func(a, b int) bool {
		parent[find(a)] = find(b)
		return true
	})
	isHot := make([]bool, len(pts))
	hotRoot := make(map[int]bool)
	for _, h := range hot {
		isHot[h] = true
		hotRoot[find(int(h))] = true
	}
	var out []int32
	for i := range pts {
		if !isHot[i] && hotRoot[find(i)] {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestQuickSpreadMatchesClosure holds the seeded spread to what it
// replaced: for arbitrary clouds (points outside the environment
// included) and hot sets — none, one, all, or an arbitrary subset — the
// points Spread adds are exactly the cold members of the components of
// Join's pair graph that contain a hot point, each reported once, after
// the unchanged initial hot list.
func TestQuickSpreadMatchesClosure(t *testing.T) {
	env := geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100})
	f := func(raw []uint16, dtRaw uint8, mask uint64, mode uint8) bool {
		if len(raw) > 128 {
			raw = raw[:128]
		}
		dT := 1 + float64(dtRaw%40)
		pts := make([]geo.Point, len(raw)/2)
		for i := range pts {
			pts[i] = geo.Point{X: float64(raw[2*i]%120) - 10, Y: float64(raw[2*i+1]%120) - 10}
		}
		var hot []int32
		for i := range pts {
			switch mode % 4 {
			case 0: // none
			case 1: // one
				if i == int(mask%uint64(len(pts))) {
					hot = append(hot, int32(i))
				}
			case 2: // all
				hot = append(hot, int32(i))
			default:
				if mask>>(i%64)&1 == 1 {
					hot = append(hot, int32(i))
				}
			}
		}
		j := NewJoiner(env, dT)
		want := closure(j, pts, hot)
		got := j.Spread(pts, append([]int32(nil), hot...))
		if len(got) < len(hot) || !slices.Equal(got[:len(hot)], hot) {
			return false
		}
		added := slices.Clone(got[len(hot):])
		slices.Sort(added)
		return slices.Equal(added, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
