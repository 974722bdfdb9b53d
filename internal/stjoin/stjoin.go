// Package stjoin implements the spatiotemporal join primitives of §4: given
// object positions at a time instant, find the pairs within the contact
// threshold dT. Contact extraction (offline) and ReachGrid's seed expansion
// (online) are both built on the per-instant grid-hash join provided here,
// swept over time exactly like the Closest-Point-of-Approach join of
// Arumugam & Jermaine that the paper adopts.
//
// A Joiner keeps one compact cell table — a chain head per join cell, a
// link per point — and walks it two ways. Join examines every pair of
// neighbouring points: what contact extraction, live ingest and the hop
// relaxation need. Spread starts from the points that already carry the
// item and examines only pairs with a carrier on one side (the join driven
// from the patient's side of Ali et al. 2020), so its cost follows the
// infected frontier, not the number of points.
//
// Order guarantee: Join visits cells in order of first appearance in pts
// and the points of a cell in ascending index, so the sequence of emitted
// pairs is a function of pts alone; Spread reports new carriers in
// breadth-first order from the initial ones. Only Join depends on the
// first-appearance order, and it reads it off the table itself (a cell
// comes up at the point its chain starts with), so hashing pays for no
// order: a Spread's hash is one pass computing cells and one chaining them.
package stjoin

import (
	"streach/internal/geo"
	"streach/internal/trajectory"
)

// Joiner finds point pairs within a fixed distance threshold using a
// uniform grid whose cells are at least dT wide, so matching pairs always
// fall in the same or an adjacent cell. A Joiner allocates its cell table
// once and is reused across time instants; it is not safe for concurrent
// use.
type Joiner struct {
	env    geo.Rect
	dT     float64
	dT2    float64
	nx, ny int
	cellW  float64
	cellH  float64

	head    []int32 // per cell: lowest point hashed into it, -1 when empty
	next    []int32 // per point: next higher point of the same cell, or -1
	cell    []int32 // per point: its cell; complemented while it is a carrier
	touched []int32 // cells hashed into by the last call, for its reset
}

// NewJoiner returns a joiner for points inside env with threshold dT > 0.
func NewJoiner(env geo.Rect, dT float64) *Joiner {
	if dT <= 0 {
		dT = 1
	}
	nx := int(env.Width() / dT)
	if nx < 1 {
		nx = 1
	}
	ny := int(env.Height() / dT)
	if ny < 1 {
		ny = 1
	}
	j := &Joiner{
		env:     env,
		dT:      dT,
		dT2:     dT * dT,
		nx:      nx,
		ny:      ny,
		cellW:   env.Width() / float64(nx),
		cellH:   env.Height() / float64(ny),
		head:    make([]int32, nx*ny),
		touched: make([]int32, 0, 64),
	}
	for i := range j.head {
		j.head[i] = -1
	}
	return j
}

func (j *Joiner) cellOf(p geo.Point) (int, int) {
	cx := int((p.X - j.env.Min.X) / j.cellW)
	cy := int((p.Y - j.env.Min.Y) / j.cellH)
	if cx < 0 {
		cx = 0
	} else if cx >= j.nx {
		cx = j.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= j.ny {
		cy = j.ny - 1
	}
	return cx, cy
}

// hash empties the table of the previous call (which may have been aborted
// half-way) and chains every point into its cell, except the carriers
// listed in hot, whose cell is complemented instead. Pushing points in
// descending index makes every chain ascend. A cell is listed in touched
// when its chain starts, for the next call's reset; the list is in no
// useful order.
func (j *Joiner) hash(pts []geo.Point, hot []int32) {
	for _, id := range j.touched {
		j.head[id] = -1
	}
	j.touched = j.touched[:0]
	if cap(j.cell) < len(pts) {
		j.cell = make([]int32, 2*len(pts))
		j.next = make([]int32, 2*len(pts))
	}
	cell, next, head := j.cell[:len(pts)], j.next[:len(pts)], j.head
	j.cell, j.next = cell, next
	for i, p := range pts {
		cx, cy := j.cellOf(p)
		cell[i] = int32(cy*j.nx + cx)
	}
	for _, h := range hot {
		cell[h] = ^cell[h]
	}
	for i := len(pts) - 1; i >= 0; i-- {
		c := cell[i]
		if c < 0 {
			continue
		}
		if head[c] < 0 {
			j.touched = append(j.touched, c)
		}
		next[i] = head[c]
		head[c] = int32(i)
	}
}

// Join emits every unordered pair (a, b), a < b, of indices into pts whose
// points are within dT of each other. emit returning false aborts the join
// early (used for first-match queries). The order of emitted pairs is
// deterministic for a fixed input: cells in order of first appearance —
// the cell of point i is one whose chain starts at i — and the points of
// a cell in ascending index.
func (j *Joiner) Join(pts []geo.Point, emit func(a, b int) bool) {
	j.hash(pts, nil)
	for i, id := range j.cell {
		first := int32(i)
		if j.head[id] != first {
			continue
		}
		cx, cy := int(id)%j.nx, int(id)/j.nx
		// Pairs within the cell.
		for a := first; a >= 0; a = j.next[a] {
			for b := j.next[a]; b >= 0; b = j.next[b] {
				if !j.tryEmit(pts, a, b, emit) {
					return
				}
			}
		}
		// Pairs with forward neighbour cells (E, NW, N, NE) so each
		// neighbouring pair of cells is examined exactly once.
		for _, d := range [4][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
			nxc, nyc := cx+d[0], cy+d[1]
			if nxc < 0 || nxc >= j.nx || nyc < 0 || nyc >= j.ny {
				continue
			}
			other := j.head[nyc*j.nx+nxc]
			if other < 0 {
				continue
			}
			for a := first; a >= 0; a = j.next[a] {
				for b := other; b >= 0; b = j.next[b] {
					if !j.tryEmit(pts, a, b, emit) {
						return
					}
				}
			}
		}
	}
}

func (j *Joiner) tryEmit(pts []geo.Point, a, b int32, emit func(a, b int) bool) bool {
	if pts[a].Dist2(pts[b]) > j.dT2 {
		return true
	}
	if a > b {
		a, b = b, a
	}
	return emit(int(a), int(b))
}

// Spread closes a set of carriers under "within dT of a carrier". hot lists
// the indices of the points of pts that carry the item, each once; the
// others are cold, and only they are hashed. Each carrier in turn probes
// the 3×3 cells around it: a cold point within dT leaves the table, is
// appended to hot and probes later itself. The result is hot extended by
// the cold members of the components of Join's pair graph that contain a
// carrier; no pair of two cold or of two hot points is ever examined.
func (j *Joiner) Spread(pts []geo.Point, hot []int32) []int32 {
	if len(hot) == 0 {
		return hot
	}
	j.hash(pts, hot)
	head, next, cell, nx, dT2 := j.head, j.next, j.cell, j.nx, j.dT2
	for q := 0; q < len(hot); q++ {
		h := hot[q]
		p := pts[h]
		c := int(^cell[h])
		cx, cy := c%nx, c/nx
		x0, x1 := max(cx-1, 0), min(cx+1, nx-1)
		for y := max(cy-1, 0); y <= min(cy+1, j.ny-1); y++ {
			row := head[y*nx+x0 : y*nx+x1+1]
			for x := range row {
				at := &row[x]
				for b := *at; b >= 0; b = *at {
					if p.Dist2(pts[b]) > dT2 {
						at = &next[b]
						continue
					}
					*at = next[b]
					cell[b] = ^cell[b]
					hot = append(hot, b)
				}
			}
		}
	}
	return hot
}

// Pair is an unordered object pair with A < B.
type Pair struct {
	A, B trajectory.ObjectID
}

// MakePair normalizes (a, b) into a Pair.
func MakePair(a, b trajectory.ObjectID) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}
