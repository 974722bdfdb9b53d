// Package trajectory defines the moving-object trajectory model of the
// paper's §3–§4: a trajectory is a sequence of (position, timestamp) pairs
// sampled at a fixed tick; a segment is the restriction of a trajectory to a
// time window.
//
// Time is discrete throughout streach. A tick index ("instant") is an int32;
// the mapping from ticks to wall-clock durations (6 s for RWP datasets, 5 s
// for VN datasets, per §6) is metadata carried by Dataset.
package trajectory

import (
	"fmt"
	"slices"

	"streach/internal/geo"
)

// ObjectID identifies a moving object within a dataset. IDs are dense and
// start at 0, which lets most per-object state live in slices.
type ObjectID int32

// Tick is a discrete time instant.
type Tick int32

// Sample is one recorded (position, time) pair of a trajectory.
type Sample struct {
	T Tick
	P geo.Point
}

// Trajectory is the full movement history of one object: samples at every
// tick in [Start, Start+len(Pos)). Storing one position per tick (rather
// than sparse samples) matches the paper's TEN formulation, where every
// object has a vertex at every instant.
type Trajectory struct {
	Object ObjectID
	Start  Tick
	Pos    []geo.Point
}

// End returns the last tick covered by the trajectory, or Start-1 when the
// trajectory is empty.
func (tr *Trajectory) End() Tick { return tr.Start + Tick(len(tr.Pos)) - 1 }

// Len returns the number of samples.
func (tr *Trajectory) Len() int { return len(tr.Pos) }

// Covers reports whether the trajectory has a sample at tick t.
func (tr *Trajectory) Covers(t Tick) bool { return t >= tr.Start && t <= tr.End() }

// At returns the position at tick t. It panics when t is not covered;
// callers are expected to check Covers or clamp with AtClamped.
func (tr *Trajectory) At(t Tick) geo.Point {
	if !tr.Covers(t) {
		panic(fmt.Sprintf("trajectory %d: tick %d outside [%d, %d]",
			tr.Object, t, tr.Start, tr.End()))
	}
	return tr.Pos[t-tr.Start]
}

// AtClamped returns the position at tick t, clamping t to the covered range.
// Objects are assumed stationary before their first and after their last
// sample, the standard convention for historical trajectory archives.
func (tr *Trajectory) AtClamped(t Tick) geo.Point {
	if t < tr.Start {
		t = tr.Start
	}
	if t > tr.End() {
		t = tr.End()
	}
	return tr.Pos[t-tr.Start]
}

// Segment is a view of a trajectory restricted to a time window, the
// r_i(w) of §4. It shares the backing array of its parent trajectory.
type Segment struct {
	Object ObjectID
	Start  Tick
	Pos    []geo.Point
}

// Slice returns the segment of tr covering [lo, hi] ∩ [Start, End]. The
// returned segment may be empty.
func (tr *Trajectory) Slice(lo, hi Tick) Segment {
	if lo < tr.Start {
		lo = tr.Start
	}
	if hi > tr.End() {
		hi = tr.End()
	}
	if hi < lo {
		return Segment{Object: tr.Object, Start: lo}
	}
	return Segment{
		Object: tr.Object,
		Start:  lo,
		Pos:    tr.Pos[lo-tr.Start : hi-tr.Start+1],
	}
}

// End returns the last tick covered by the segment.
func (s Segment) End() Tick { return s.Start + Tick(len(s.Pos)) - 1 }

// Len returns the number of samples in the segment.
func (s Segment) Len() int { return len(s.Pos) }

// At returns the position at tick t, which must be covered.
func (s Segment) At(t Tick) geo.Point { return s.Pos[t-s.Start] }

// Covers reports whether the segment has a sample at tick t.
func (s Segment) Covers(t Tick) bool { return t >= s.Start && t <= s.End() }

// Dataset is a complete contact dataset: the trajectories of all objects
// over a common time domain, plus the metadata needed to interpret them.
type Dataset struct {
	// Name identifies the dataset in experiment output (e.g. "RWP200").
	Name string
	// Env is the spatial environment E.
	Env geo.Rect
	// TickSeconds is the wall-clock duration of one tick.
	TickSeconds float64
	// ContactDist is the contact threshold dT in metres.
	ContactDist float64
	// Trajs holds one trajectory per object, indexed by ObjectID.
	Trajs []Trajectory
}

// NumObjects returns |O|.
func (d *Dataset) NumObjects() int { return len(d.Trajs) }

// NumTicks returns |T|: the number of instants in the common time domain.
// All generators produce aligned trajectories (Start = 0, equal length); for
// safety this returns the maximal covered tick + 1.
func (d *Dataset) NumTicks() int {
	end := Tick(-1)
	for i := range d.Trajs {
		if e := d.Trajs[i].End(); e > end {
			end = e
		}
	}
	return int(end) + 1
}

// Traj returns the trajectory of object id.
func (d *Dataset) Traj(id ObjectID) *Trajectory { return &d.Trajs[id] }

// Window returns a view of the dataset restricted to the ticks [lo, hi],
// re-based so the window starts at tick 0. Trajectory positions share the
// parent's backing arrays (windows are read-only views); objects whose
// samples do not fully cover the window keep their clamped sub-range, with
// the stationary-before/after convention of AtClamped applying as usual.
// This is the trajectory-side extraction primitive behind time-sliced index
// segments.
func (d *Dataset) Window(lo, hi Tick) *Dataset {
	if lo < 0 {
		lo = 0
	}
	if last := Tick(d.NumTicks()) - 1; hi > last {
		hi = last
	}
	w := &Dataset{
		Name:        fmt.Sprintf("%s[%d,%d]", d.Name, lo, hi),
		Env:         d.Env,
		TickSeconds: d.TickSeconds,
		ContactDist: d.ContactDist,
		Trajs:       make([]Trajectory, len(d.Trajs)),
	}
	for i := range d.Trajs {
		seg := d.Trajs[i].Slice(lo, hi)
		if len(seg.Pos) == 0 {
			// The trajectory misses the window entirely. It must not
			// Cover any window instant — a covered sample would fabricate
			// contacts the full dataset never had — so its span is placed
			// before tick 0 (Start -1, End -1). AtClamped still answers
			// with the nearest archived position, matching the
			// stationary-outside-coverage convention.
			w.Trajs[i] = Trajectory{
				Object: d.Trajs[i].Object,
				Start:  -1,
				Pos:    []geo.Point{d.Trajs[i].AtClamped(lo)},
			}
			continue
		}
		w.Trajs[i] = Trajectory{
			Object: d.Trajs[i].Object,
			Start:  seg.Start - lo,
			Pos:    seg.Pos,
		}
	}
	return w
}

// SizeBytes estimates the raw size of the dataset as stored on disk: one
// 16-byte (x, y) pair per object per tick, the figure reported in Table 2.
func (d *Dataset) SizeBytes() int64 {
	var n int64
	for i := range d.Trajs {
		n += int64(len(d.Trajs[i].Pos)) * 16
	}
	return n
}

// Validate checks internal consistency: dense object IDs, samples inside a
// non-empty environment, positive tick duration and contact distance. Index
// builders call it before construction so corrupt inputs fail fast.
func (d *Dataset) Validate() error {
	if d.Env.IsEmpty() {
		return fmt.Errorf("trajectory: dataset %q has empty environment", d.Name)
	}
	if d.TickSeconds <= 0 {
		return fmt.Errorf("trajectory: dataset %q has non-positive tick duration", d.Name)
	}
	if d.ContactDist <= 0 {
		return fmt.Errorf("trajectory: dataset %q has non-positive contact distance", d.Name)
	}
	for i := range d.Trajs {
		tr := &d.Trajs[i]
		if tr.Object != ObjectID(i) {
			return fmt.Errorf("trajectory: dataset %q object %d stored at index %d", d.Name, tr.Object, i)
		}
		if len(tr.Pos) == 0 {
			return fmt.Errorf("trajectory: dataset %q object %d has no samples", d.Name, i)
		}
		for _, p := range tr.Pos {
			if !d.Env.Contains(p) {
				return fmt.Errorf("trajectory: dataset %q object %d leaves environment at %v", d.Name, i, p)
			}
		}
	}
	return nil
}

// Interpolate returns a copy of tr densified by an integer factor: each
// original step [t, t+1] is split into factor sub-steps with linearly
// interpolated positions. This reproduces the paper's treatment of the
// Beijing dataset, whose 1-minute GPS fixes were "interpolated to reflect
// the locations for every five seconds" (§6).
func Interpolate(tr *Trajectory, factor int) Trajectory {
	if factor < 1 {
		factor = 1
	}
	if len(tr.Pos) == 0 || factor == 1 {
		out := Trajectory{Object: tr.Object, Start: tr.Start, Pos: make([]geo.Point, len(tr.Pos))}
		copy(out.Pos, tr.Pos)
		return out
	}
	n := (len(tr.Pos)-1)*factor + 1
	pos := make([]geo.Point, 0, n)
	for i := 0; i < len(tr.Pos)-1; i++ {
		a, b := tr.Pos[i], tr.Pos[i+1]
		for k := 0; k < factor; k++ {
			pos = append(pos, a.Lerp(b, float64(k)/float64(factor)))
		}
	}
	pos = append(pos, tr.Pos[len(tr.Pos)-1])
	return Trajectory{Object: tr.Object, Start: tr.Start * Tick(factor), Pos: pos}
}

// SortDedupObjects sorts ids ascending and removes duplicates in place —
// the one normalization every reachable-set answer in the module goes
// through, keeping set results identical across backends. slices.Sort
// rather than sort.Slice: the planners normalize a frontier per slab, and
// the interface boxing plus reflect-based swapper of sort.Slice would put
// two heap allocations on that per-slab path.
func SortDedupObjects(ids []ObjectID) []ObjectID {
	slices.Sort(ids)
	w := 0
	for i, o := range ids {
		if i == 0 || o != ids[w-1] {
			ids[w] = o
			w++
		}
	}
	return ids[:w]
}
