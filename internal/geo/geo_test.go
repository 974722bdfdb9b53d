package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{3, 4}
	q := Point{1, 1}
	if got := p.Sub(q); got != (Point{2, 3}) {
		t.Errorf("Sub = %v, want (2,3)", got)
	}
	if got := p.Add(q); got != (Point{4, 5}) {
		t.Errorf("Add = %v, want (4,5)", got)
	}
}

func TestDist(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := p.Dist(q); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d2 := p.Dist2(q); d2 != 25 {
		t.Errorf("Dist2 = %v, want 25", d2)
	}
}

func TestDist2ConsistentWithDist(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a := Point{rng.Float64()*2000 - 1000, rng.Float64()*2000 - 1000}
		b := Point{rng.Float64()*2000 - 1000, rng.Float64()*2000 - 1000}
		d := a.Dist(b)
		if math.Abs(d*d-a.Dist2(b)) > 1e-6*(1+d*d) {
			t.Fatalf("Dist/Dist2 mismatch for %v, %v", a, b)
		}
	}
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 20}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v, want (5,10)", got)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Point{5, 1}, Point{2, 7})
	if r.Min != (Point{2, 1}) || r.Max != (Point{5, 7}) {
		t.Errorf("NewRect = %+v", r)
	}
	if r.Width() != 3 || r.Height() != 6 {
		t.Errorf("Width/Height = %v/%v, want 3/6", r.Width(), r.Height())
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Width() != 0 || e.Height() != 0 {
		t.Error("empty rect should have zero extent")
	}
	r := NewRect(Point{0, 0}, Point{1, 1})
	if got := e.Union(r); got != r {
		t.Errorf("empty ∪ r = %+v, want %+v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r ∪ empty = %+v, want %+v", got, r)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Error("empty rect should intersect nothing")
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	for _, tc := range []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},   // corner: closed rectangle
		{Point{10, 10}, true}, // far corner
		{Point{10.001, 5}, false},
		{Point{-0.001, 5}, false},
	} {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectExpand(t *testing.T) {
	r := NewRect(Point{2, 2}, Point{4, 4}).Expand(1)
	want := NewRect(Point{1, 1}, Point{5, 5})
	if r != want {
		t.Errorf("Expand = %+v, want %+v", r, want)
	}
	if !EmptyRect().Expand(5).IsEmpty() {
		t.Error("expanding an empty rect must stay empty")
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{5, 5})
	b := NewRect(Point{5, 5}, Point{9, 9}) // touching corner counts (closed)
	c := NewRect(Point{6, 6}, Point{9, 9})
	if !a.Intersects(b) {
		t.Error("touching rects should intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects should not intersect")
	}
}

func TestRectClamp(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	if got := r.Clamp(Point{-5, 3}); got != (Point{0, 3}) {
		t.Errorf("Clamp = %v, want (0,3)", got)
	}
	if got := r.Clamp(Point{4, 4}); got != (Point{4, 4}) {
		t.Errorf("Clamp of inside point = %v, want identity", got)
	}
}

func TestUnionProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := NewRect(Point{ax, ay}, Point{bx, by})
		s := NewRect(Point{cx, cy}, Point{dx, dy})
		u := r.Union(s)
		// Union contains all four defining corners.
		return u.Contains(r.Min) && u.Contains(r.Max) && u.Contains(s.Min) && u.Contains(s.Max) &&
			u == s.Union(r) // commutative
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridBasics(t *testing.T) {
	env := NewRect(Point{0, 0}, Point{100, 50})
	g := NewGrid(env, 10)
	if g.NumCells() != 50 {
		t.Fatalf("NumCells = %d, want 50", g.NumCells())
	}
	cx, cy := g.Cell(Point{15, 35})
	if cx != 1 || cy != 3 {
		t.Errorf("Cell = (%d,%d), want (1,3)", cx, cy)
	}
	id := g.CellID(Point{15, 35})
	if id != 31 {
		t.Errorf("CellID = %d, want 31", id)
	}
	rx, ry := g.IDToCell(id)
	if rx != cx || ry != cy {
		t.Errorf("IDToCell(%d) = (%d,%d), want (%d,%d)", id, rx, ry, cx, cy)
	}
}

func TestGridClampsOutOfRange(t *testing.T) {
	g := NewGrid(NewRect(Point{0, 0}, Point{100, 100}), 10)
	cx, cy := g.Cell(Point{-5, 150})
	if cx != 0 || cy != 9 {
		t.Errorf("out-of-range Cell = (%d,%d), want (0,9)", cx, cy)
	}
	// The far boundary belongs to the last cell.
	cx, cy = g.Cell(Point{100, 100})
	if cx != 9 || cy != 9 {
		t.Errorf("boundary Cell = (%d,%d), want (9,9)", cx, cy)
	}
}

func TestGridCellsIntersecting(t *testing.T) {
	g := NewGrid(NewRect(Point{0, 0}, Point{100, 100}), 10)
	ids := g.CellsIntersecting(NewRect(Point{11, 11}, Point{29, 19}), nil)
	want := []int{11, 12}
	if len(ids) != len(want) {
		t.Fatalf("CellsIntersecting = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("CellsIntersecting = %v, want %v", ids, want)
		}
	}
	if got := g.CellsIntersecting(NewRect(Point{200, 200}, Point{300, 300}), nil); len(got) != 0 {
		t.Errorf("cells for disjoint rect = %v, want none", got)
	}
	if got := g.CellsIntersecting(EmptyRect(), nil); len(got) != 0 {
		t.Errorf("cells for empty rect = %v, want none", got)
	}
}

func TestGridCellsIntersectingCoversCellPoints(t *testing.T) {
	// Property: for random rects, every grid cell that contains a random
	// point of the rect is listed.
	rng := rand.New(rand.NewSource(42))
	g := NewGrid(NewRect(Point{0, 0}, Point{1000, 1000}), 37)
	for i := 0; i < 200; i++ {
		a := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		b := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		r := NewRect(a, b)
		ids := g.CellsIntersecting(r, nil)
		set := make(map[int]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		for j := 0; j < 20; j++ {
			p := Point{
				r.Min.X + rng.Float64()*r.Width(),
				r.Min.Y + rng.Float64()*r.Height(),
			}
			if !set[g.CellID(p)] {
				t.Fatalf("cell %d of point %v in rect %+v missing from %v",
					g.CellID(p), p, r, ids)
			}
		}
	}
}

func TestGridTinyEnvironment(t *testing.T) {
	// Degenerate environments must still produce a usable 1×1 grid.
	g := NewGrid(Rect{}, 10)
	if g.NumCells() != 1 {
		t.Fatalf("NumCells = %d, want 1", g.NumCells())
	}
	if id := g.CellID(Point{123, -456}); id != 0 {
		t.Errorf("CellID = %d, want 0", id)
	}
	g2 := NewGrid(NewRect(Point{0, 0}, Point{5, 5}), 0) // invalid cell size
	if g2.NumCells() < 1 {
		t.Error("grid with invalid cell size must have ≥ 1 cell")
	}
}
