// Package geo provides the planar geometry primitives used throughout
// streach: points, axis-aligned rectangles, distance computations and
// uniform-grid snapping.
//
// All coordinates are in metres in an abstract planar environment; the
// package is deliberately free of any geodetic concerns because the paper's
// datasets live in small (≤ 600 km²) urban extents where a planar
// approximation is exact enough for contact detection.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in metres.
type Point struct {
	X, Y float64
}

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns the vector p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. Prefer it in
// inner loops where only comparisons against a squared threshold are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates between p (f=0) and q (f=1).
func (p Point) Lerp(q Point, f float64) Point {
	return Point{p.X + (q.X-p.X)*f, p.Y + (q.Y-p.Y)*f}
}

func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Rect is a closed axis-aligned rectangle. A Rect with Min components larger
// than the corresponding Max components is empty.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// EmptyRect returns a rectangle that contains nothing and acts as the
// identity for Union.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the horizontal extent of r (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the vertical extent of r (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Contains reports whether p lies inside the closed rectangle r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Expand grows r by d on every side. ReachGrid uses this to turn the MBR of
// a seed trajectory segment into the region whose objects may contact the
// seed (paper §4.2).
func (r Rect) Expand(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// Intersects reports whether the closed rectangles r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Grid maps points of an environment rectangle onto an n×m uniform grid of
// square-ish cells. It is the shared spatial-partitioning primitive of the
// per-instant contact join and the ReachGrid index.
type Grid struct {
	env    Rect
	cellW  float64
	cellH  float64
	nx, ny int
}

// NewGrid builds a grid over env with cells of the requested size. The cell
// size is clamped so the grid has at least one and at most maxCellsPerAxis
// cells per axis; the effective cell dimensions may therefore differ
// slightly from the request (they tile env exactly).
func NewGrid(env Rect, cellSize float64) Grid {
	if env.IsEmpty() {
		env = Rect{}
	}
	if cellSize <= 0 {
		cellSize = 1
	}
	nx := int(math.Ceil(env.Width() / cellSize))
	ny := int(math.Ceil(env.Height() / cellSize))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	return Grid{
		env:   env,
		cellW: env.Width() / float64(nx),
		cellH: env.Height() / float64(ny),
		nx:    nx,
		ny:    ny,
	}
}

// Env returns the environment rectangle the grid tiles.
func (g Grid) Env() Rect { return g.env }

// NumCells returns the total number of cells.
func (g Grid) NumCells() int { return g.nx * g.ny }

// CellSize returns the effective width and height of a cell.
func (g Grid) CellSize() (w, h float64) { return g.cellW, g.cellH }

// Cell returns the (cx, cy) coordinates of the cell containing p. Points
// outside the environment are clamped to the border cells, mirroring how the
// generators keep objects inside the environment.
func (g Grid) Cell(p Point) (cx, cy int) {
	cx = g.axisCell(p.X-g.env.Min.X, g.cellW, g.nx)
	cy = g.axisCell(p.Y-g.env.Min.Y, g.cellH, g.ny)
	return cx, cy
}

func (Grid) axisCell(off, size float64, n int) int {
	if size <= 0 {
		return 0
	}
	c := int(off / size)
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// CellID returns the row-major identifier of the cell containing p.
func (g Grid) CellID(p Point) int {
	cx, cy := g.Cell(p)
	return cy*g.nx + cx
}

// IDToCell is the inverse of CellID.
func (g Grid) IDToCell(id int) (cx, cy int) { return id % g.nx, id / g.nx }

// CellsIntersecting appends to dst the row-major IDs of all cells whose
// rectangle intersects r, and returns the extended slice. The rectangle is
// clipped to the environment first.
func (g Grid) CellsIntersecting(r Rect, dst []int) []int {
	if r.IsEmpty() || !r.Intersects(g.env) {
		return dst
	}
	x0 := g.axisCell(r.Min.X-g.env.Min.X, g.cellW, g.nx)
	x1 := g.axisCell(r.Max.X-g.env.Min.X, g.cellW, g.nx)
	y0 := g.axisCell(r.Min.Y-g.env.Min.Y, g.cellH, g.ny)
	y1 := g.axisCell(r.Max.Y-g.env.Min.Y, g.cellH, g.ny)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			dst = append(dst, cy*g.nx+cx)
		}
	}
	return dst
}
