package reachgrid

import (
	"testing"

	"streach/internal/geo"
	"streach/internal/trajectory"
)

// crossingDataset is one bucket of 20 ticks over a row of four 25-wide
// cells. Object 3 crosses all four (its record is repeated in each cell
// blob); objects 0–2 idle in cells 0–2 and objects 4–6 in cells 1–3, so in
// every blob the repeated record has a neighbour in front of it, behind it,
// or both. The idlers jitter so the predictor stream is not all zeros.
func crossingDataset() *trajectory.Dataset {
	const ticks = 20
	d := &trajectory.Dataset{
		Name:        "crossing",
		Env:         geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 25}),
		TickSeconds: 1,
		ContactDist: 2,
	}
	idle := func(o trajectory.ObjectID, x float64) {
		pos := make([]geo.Point, ticks)
		for k := range pos {
			pos[k] = geo.Point{X: x + 0.37*float64(k%3), Y: 3 + float64(o) + 0.011*float64(k*k)}
		}
		d.Trajs = append(d.Trajs, trajectory.Trajectory{Object: o, Pos: pos})
	}
	idle(0, 5)
	idle(1, 30)
	idle(2, 55)
	cross := make([]geo.Point, ticks)
	for k := range cross {
		cross[k] = geo.Point{X: 2 + 5*float64(k) + 0.003*float64(k*k), Y: 12.5}
	}
	d.Trajs = append(d.Trajs, trajectory.Trajectory{Object: 3, Pos: cross})
	idle(4, 35)
	idle(5, 60)
	idle(6, 85)
	return d
}

// segment returns the buffered segment of object o, if any.
func (sc *gridScratch) segment(o trajectory.ObjectID) (trajectory.Segment, bool) {
	i, ok := sc.segAt.Get(int(o))
	if !ok {
		return trajectory.Segment{}, false
	}
	return sc.segs[i], true
}

// TestRepeatedRecordsAreSteppedOver loads the cells of a bucket in which
// one object spans four cells, in several orders, and checks that every
// object's buffered segment is bit-for-bit its trajectory slice — which
// holds only if stepping over a repeated record (without running the
// predictor) lands exactly on the next record — and that the repeats took
// no arena space.
func TestRepeatedRecordsAreSteppedOver(t *testing.T) {
	d := crossingDataset()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	ix := buildIndex(t, d, Params{CellSize: 25, BucketTicks: 20})
	if ix.NumBuckets() != 1 || ix.grid.NumCells() != 4 {
		t.Fatalf("fixture: %d buckets, %d cells", ix.NumBuckets(), ix.grid.NumCells())
	}
	for cell := 0; cell < 4; cell++ {
		sc, acct := ix.begin(nil)
		sc.resetBucket(ix.numObjects, 4)
		if err := ix.loadCell(0, cell, sc, acct); err != nil {
			t.Fatal(err)
		}
		if _, ok := sc.segment(3); !ok || len(sc.segs) < 2 {
			t.Fatalf("fixture: cell %d holds %d records, the crossing object among them: %v", cell, len(sc.segs), ok)
		}
		ix.pool.Put(sc)
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		sc, acct := ix.begin(nil)
		sc.resetBucket(ix.numObjects, 4)
		for _, cell := range order {
			if err := ix.loadCell(0, cell, sc, acct); err != nil {
				t.Fatalf("order %v, cell %d: %v", order, cell, err)
			}
		}
		points := 0
		for o := range d.Trajs {
			want := d.Trajs[o].Slice(0, 19)
			got, ok := sc.segment(trajectory.ObjectID(o))
			if !ok || got.Object != want.Object || got.Start != want.Start || len(got.Pos) != len(want.Pos) {
				t.Fatalf("order %v: object %d buffered as %+v (found %v)", order, o, got, ok)
			}
			for k := range want.Pos {
				if got.Pos[k] != want.Pos[k] {
					t.Fatalf("order %v: object %d sample %d = %v, want %v", order, o, k, got.Pos[k], want.Pos[k])
				}
			}
			points += len(want.Pos)
		}
		if len(sc.segs) != len(d.Trajs) || sc.arena.Len() != points {
			t.Fatalf("order %v: %d segments over %d arena points, want %d over %d",
				order, len(sc.segs), sc.arena.Len(), len(d.Trajs), points)
		}
		ix.pool.Put(sc)
	}
}

// TestArenaKeepsEarlierSegments grows the position arena past its capacity
// inside one bucket: segments handed out before the growth keep their
// samples, later ones do not overlap them, and a reset reuses the grown
// array.
func TestArenaKeepsEarlierSegments(t *testing.T) {
	var sc gridScratch
	first := sc.arena.Alloc(10)
	for k := range first {
		first[k] = geo.Point{X: float64(k), Y: -1}
	}
	second := sc.arena.Alloc(5000) // forces a replacement
	for k := range second {
		second[k] = geo.Point{X: -2, Y: -2}
	}
	for k := range first {
		if first[k] != (geo.Point{X: float64(k), Y: -1}) {
			t.Fatalf("sample %d of the earlier segment overwritten: %v", k, first[k])
		}
	}
	if cap(first) != 10 || cap(second) != 5000 {
		t.Fatalf("segments can grow into their neighbours: caps %d, %d", cap(first), cap(second))
	}
	grown := sc.arena.Cap()
	sc.resetBucket(1, 1)
	sc.arena.Alloc(4000)
	if sc.arena.Cap() != grown {
		t.Fatalf("reset arena reallocated: cap %d, was %d", sc.arena.Cap(), grown)
	}
}
