package trajectory

import (
	"math/rand"
	"testing"

	"streach/internal/geo"
)

func lineTraj(id ObjectID, start Tick, n int) Trajectory {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i), Y: 2 * float64(i)}
	}
	return Trajectory{Object: id, Start: start, Pos: pos}
}

func TestTrajectoryBasics(t *testing.T) {
	tr := lineTraj(3, 10, 5)
	if tr.End() != 14 {
		t.Fatalf("End = %d, want 14", tr.End())
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}
	if !tr.Covers(10) || !tr.Covers(14) || tr.Covers(9) || tr.Covers(15) {
		t.Error("Covers boundaries wrong")
	}
	if got := tr.At(12); got != (geo.Point{X: 2, Y: 4}) {
		t.Errorf("At(12) = %v", got)
	}
}

func TestAtPanicsOutsideRange(t *testing.T) {
	tr := lineTraj(0, 0, 3)
	defer func() {
		if recover() == nil {
			t.Error("At outside range should panic")
		}
	}()
	tr.At(5)
}

func TestAtClamped(t *testing.T) {
	tr := lineTraj(0, 5, 3) // ticks 5..7
	if got := tr.AtClamped(0); got != tr.Pos[0] {
		t.Errorf("AtClamped before start = %v", got)
	}
	if got := tr.AtClamped(99); got != tr.Pos[2] {
		t.Errorf("AtClamped after end = %v", got)
	}
	if got := tr.AtClamped(6); got != tr.Pos[1] {
		t.Errorf("AtClamped inside = %v", got)
	}
}

func TestEmptyTrajectoryEnd(t *testing.T) {
	tr := Trajectory{Object: 0, Start: 4}
	if tr.End() != 3 {
		t.Errorf("empty End = %d, want 3", tr.End())
	}
	if tr.Covers(4) {
		t.Error("empty trajectory covers nothing")
	}
}

func TestMBR(t *testing.T) {
	tr := lineTraj(0, 0, 10)
	r := tr.MBR(2, 4)
	want := geo.NewRect(geo.Point{X: 2, Y: 4}, geo.Point{X: 4, Y: 8})
	if r != want {
		t.Errorf("MBR = %+v, want %+v", r, want)
	}
	// Clamped window.
	r = tr.MBR(-5, 100)
	want = geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 9, Y: 18})
	if r != want {
		t.Errorf("clamped MBR = %+v, want %+v", r, want)
	}
	if !tr.MBR(50, 60).IsEmpty() {
		t.Error("MBR of disjoint window should be empty")
	}
}

func TestSlice(t *testing.T) {
	tr := lineTraj(7, 10, 10) // ticks 10..19
	s := tr.Slice(12, 15)
	if s.Object != 7 || s.Start != 12 || s.Len() != 4 || s.End() != 15 {
		t.Fatalf("Slice = %+v", s)
	}
	if got := s.At(13); got != tr.At(13) {
		t.Errorf("segment At(13) = %v, want %v", got, tr.At(13))
	}
	if !s.Covers(15) || s.Covers(16) {
		t.Error("segment Covers wrong")
	}
	// Clamped.
	s = tr.Slice(0, 11)
	if s.Start != 10 || s.End() != 11 {
		t.Errorf("clamped Slice = %+v", s)
	}
	// Disjoint → empty.
	s = tr.Slice(100, 200)
	if s.Len() != 0 {
		t.Errorf("disjoint Slice has %d samples", s.Len())
	}
}

func TestSegmentMBRMatchesTrajectoryMBR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pos := make([]geo.Point, 50)
	for i := range pos {
		pos[i] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	tr := Trajectory{Object: 0, Start: 0, Pos: pos}
	for trial := 0; trial < 50; trial++ {
		lo := Tick(rng.Intn(50))
		hi := lo + Tick(rng.Intn(50))
		if got, want := tr.Slice(lo, hi).MBR(), tr.MBR(lo, hi); got != want {
			t.Fatalf("segment MBR %+v != trajectory MBR %+v for [%d,%d]", got, want, lo, hi)
		}
	}
}

func newTestDataset(n, ticks int) *Dataset {
	d := &Dataset{
		Name:        "test",
		Env:         geo.NewRect(geo.Point{}, geo.Point{X: 1000, Y: 1000}),
		TickSeconds: 6,
		ContactDist: 25,
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		pos := make([]geo.Point, ticks)
		for k := range pos {
			pos[k] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		d.Trajs = append(d.Trajs, Trajectory{Object: ObjectID(i), Pos: pos})
	}
	return d
}

func TestDatasetAccessors(t *testing.T) {
	d := newTestDataset(4, 30)
	if d.NumObjects() != 4 {
		t.Errorf("NumObjects = %d", d.NumObjects())
	}
	if d.NumTicks() != 30 {
		t.Errorf("NumTicks = %d", d.NumTicks())
	}
	if d.Traj(2).Object != 2 {
		t.Error("Traj(2) wrong object")
	}
	if got, want := d.SizeBytes(), int64(4*30*16); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}

func TestDatasetValidate(t *testing.T) {
	d := newTestDataset(3, 10)
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}

	bad := newTestDataset(3, 10)
	bad.Env = geo.EmptyRect()
	if bad.Validate() == nil {
		t.Error("empty environment accepted")
	}

	bad = newTestDataset(3, 10)
	bad.TickSeconds = 0
	if bad.Validate() == nil {
		t.Error("zero tick duration accepted")
	}

	bad = newTestDataset(3, 10)
	bad.ContactDist = -1
	if bad.Validate() == nil {
		t.Error("negative contact distance accepted")
	}

	bad = newTestDataset(3, 10)
	bad.Trajs[1].Object = 9
	if bad.Validate() == nil {
		t.Error("misindexed object accepted")
	}

	bad = newTestDataset(3, 10)
	bad.Trajs[0].Pos = nil
	if bad.Validate() == nil {
		t.Error("empty trajectory accepted")
	}

	bad = newTestDataset(3, 10)
	bad.Trajs[2].Pos[5] = geo.Point{X: -99, Y: 0}
	if bad.Validate() == nil {
		t.Error("escaping object accepted")
	}
}

func TestInterpolate(t *testing.T) {
	tr := Trajectory{Object: 1, Start: 0, Pos: []geo.Point{{X: 0, Y: 0}, {X: 12, Y: 0}, {X: 12, Y: 12}}}
	out := Interpolate(&tr, 12)
	if out.Len() != 25 {
		t.Fatalf("interpolated Len = %d, want 25", out.Len())
	}
	if out.Pos[0] != tr.Pos[0] || out.Pos[12] != tr.Pos[1] || out.Pos[24] != tr.Pos[2] {
		t.Error("interpolation endpoints wrong")
	}
	if got := out.Pos[6]; got != (geo.Point{X: 6, Y: 0}) {
		t.Errorf("midpoint = %v, want (6,0)", got)
	}
	// factor 1 and invalid factor copy the input.
	same := Interpolate(&tr, 1)
	if same.Len() != tr.Len() {
		t.Error("factor-1 interpolation changed length")
	}
	same.Pos[0] = geo.Point{X: 99}
	if tr.Pos[0].X == 99 {
		t.Error("Interpolate must copy, not alias")
	}
	zero := Interpolate(&tr, 0)
	if zero.Len() != tr.Len() {
		t.Error("factor-0 interpolation should behave like factor 1")
	}
}

// TestWindowMissedTrajectoryCoversNothing guards the windowed-extraction
// contract for partial trajectories: an object whose samples all precede
// (or follow) the window must not Cover any window instant — a covered
// pinned sample would fabricate contacts the full dataset never had — while
// AtClamped still answers with its nearest archived position.
func TestWindowMissedTrajectoryCoversNothing(t *testing.T) {
	d := &Dataset{
		Name:        "partial",
		Env:         geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100}),
		TickSeconds: 1,
		ContactDist: 10,
		Trajs: []Trajectory{
			{Object: 0, Start: 0, Pos: make([]geo.Point, 100)}, // covers [0, 99]
			{Object: 1, Start: 0, Pos: make([]geo.Point, 40)},  // covers [0, 39]
		},
	}
	w := d.Window(60, 99)
	if w.NumTicks() != 40 {
		t.Fatalf("window NumTicks = %d, want 40", w.NumTicks())
	}
	for tk := Tick(0); tk < 40; tk++ {
		if w.Trajs[1].Covers(tk) {
			t.Fatalf("missed trajectory covers window tick %d", tk)
		}
		if !w.Trajs[0].Covers(tk) {
			t.Fatalf("full trajectory misses window tick %d", tk)
		}
	}
	// AtClamped still pins the absent object at its last archived position.
	if got, want := w.Trajs[1].AtClamped(0), d.Trajs[1].Pos[39]; got != want {
		t.Fatalf("AtClamped = %v, want %v", got, want)
	}
}
