// Package shard partitions the object population of a contact dataset into
// K shards, the spatial analogue of the time slabs in internal/segment: a
// partitioner assigns every object to exactly one owning shard, and the
// contact network splits into per-shard sub-networks a coordinator engine
// can index and expand independently, exchanging only the frontier objects
// that cross a shard cut.
//
// Two partitioners are provided. Hash spreads objects uniformly (a mixing
// hash over the object ID), the baseline with no locality. Spatial performs
// a grid cut: each object is snapped to its dominant cell — the geo.Grid
// cell its trajectory occupies most often — and the cells are walked in
// Z-order (Morton order), cutting the ordered population into K runs of
// near-equal object count only at cell boundaries. The space-filling curve
// keeps the 2×2 cell quads around any grid corner contiguous in the walk,
// so a mobility cluster straddling cell boundaries still lands in one
// shard; contacts are overwhelmingly local (the contact threshold is tens
// of metres while cells span hundreds), so under clustered mobility the
// cut keeps most contacts shard-internal.
//
// The split duplicates every cross-shard contact into both endpoint shards:
// shard s's sub-network holds exactly the contacts incident to at least one
// s-owned object, so a shard-local expansion is complete for every
// propagation step leaving or entering its territory, and the coordinator
// only ever needs to hand over infected boundary objects, never edges. The
// fraction of contacts duplicated this way (CrossRatio) is the partition
// quality metric: 1-1/K for a uniform random cut, near zero for a spatial
// cut of well-clustered mobility.
package shard

import (
	"fmt"
	"sort"

	"streach/internal/contact"
	"streach/internal/geo"
	"streach/internal/trajectory"
)

// Assignment maps every object of a dataset to its owning shard.
type Assignment struct {
	// K is the shard count; Partitioner the name of the scheme that
	// produced the assignment ("hash" or "spatial").
	K           int
	Partitioner string

	owner []int32 // object ID → shard in [0, K)
}

// Owner returns the shard owning object o.
func (a *Assignment) Owner(o trajectory.ObjectID) int { return int(a.owner[o]) }

// NumObjects returns the size of the assigned ID space.
func (a *Assignment) NumObjects() int { return len(a.owner) }

// Objects returns the number of objects owned by shard s.
func (a *Assignment) Objects(s int) int {
	n := 0
	for _, w := range a.owner {
		if int(w) == s {
			n++
		}
	}
	return n
}

// Hash assigns numObjects objects to k shards by a mixing hash of the
// object ID — the locality-free baseline partitioner. Deterministic.
func Hash(numObjects, k int) (*Assignment, error) {
	if err := validate(numObjects, k); err != nil {
		return nil, err
	}
	owner := make([]int32, numObjects)
	for o := range owner {
		owner[o] = int32(mix64(uint64(o)) % uint64(k))
	}
	return &Assignment{K: k, Partitioner: "hash", owner: owner}, nil
}

// mix64 is the SplitMix64 finalizer, scattering consecutive IDs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Spatial assigns the objects of d to k shards by grid cut: every object is
// snapped to the geo.Grid cell its trajectory occupies most often (its
// dominant cell), the population is ordered by dominant cell along a
// Z-order curve, and the ordering is cut into k runs of near-equal object
// count — only ever between cells, so the objects of one cell always share
// a shard. Deterministic.
func Spatial(d *trajectory.Dataset, k int) (*Assignment, error) {
	if err := validate(len(d.Trajs), k); err != nil {
		return nil, err
	}
	grid := spatialGrid(d.Env, k)
	numCells := grid.NumCells()
	zOrder := make([]int64, numCells)
	for c := range zOrder {
		cx, cy := grid.IDToCell(c)
		zOrder[c] = int64(morton2(uint32(cx), uint32(cy)))
	}

	// Dominant cell per object: the most-visited cell, lowest ID on ties.
	dom := make([]int32, len(d.Trajs))
	counts := make([]int32, numCells)
	for o, tr := range d.Trajs {
		clear(counts)
		for _, p := range tr.Pos {
			counts[grid.CellID(p)]++
		}
		best := 0
		for c := 1; c < numCells; c++ {
			if counts[c] > counts[best] {
				best = c
			}
		}
		dom[o] = int32(best)
	}

	// Cut the cell-ordered population into k runs of near-equal count,
	// closing a run only at cell boundaries: per-cell populations are
	// walked along the Z-order curve and a shard closes once it holds its
	// fair share of the objects still unassigned.
	order := make([]trajectory.ObjectID, len(d.Trajs))
	for o := range order {
		order[o] = trajectory.ObjectID(o)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if za, zb := zOrder[dom[a]], zOrder[dom[b]]; za != zb {
			return za < zb
		}
		return a < b
	})
	owner := make([]int32, len(d.Trajs))
	shard, taken, remaining := 0, 0, len(d.Trajs)
	for i := 0; i < len(order); {
		j := i
		for j < len(order) && dom[order[j]] == dom[order[i]] {
			j++
		}
		cell := j - i
		target := (remaining + (k - shard) - 1) / (k - shard)
		if shard < k-1 && taken > 0 && taken+cell > target {
			remaining -= taken
			shard, taken = shard+1, 0
		}
		for ; i < j; i++ {
			owner[order[i]] = int32(shard)
		}
		taken += cell
	}
	return &Assignment{K: k, Partitioner: "spatial", owner: owner}, nil
}

// morton2 interleaves the bits of two 16-bit cell coordinates into their
// Z-order curve position.
func morton2(x, y uint32) uint64 {
	return spread1(x) | spread1(y)<<1
}

// spread1 spaces the low 16 bits of v one position apart.
func spread1(v uint32) uint64 {
	x := uint64(v & 0xffff)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// spatialGrid returns the snapping grid of a k-way cut: roughly 4k cells,
// coarse enough that a mobility cluster usually fits one cell, fine enough
// that the cell-boundary cut stays balanced.
func spatialGrid(env geo.Rect, k int) geo.Grid {
	g := 2
	for g*g < 4*k {
		g++
	}
	side := env.Width()
	if env.Height() > side {
		side = env.Height()
	}
	if side <= 0 {
		side = 1
	}
	return geo.NewGrid(env, side/float64(g))
}

func validate(numObjects, k int) error {
	if numObjects <= 0 {
		return fmt.Errorf("shard: no objects to assign")
	}
	if k < 1 {
		return fmt.Errorf("shard: shard count %d < 1", k)
	}
	if k > numObjects {
		return fmt.Errorf("shard: %d shards exceed %d objects", k, numObjects)
	}
	return nil
}

// Split is the outcome of cutting one contact network along an assignment.
type Split struct {
	// Parts[s] is shard s's sub-network: every contact incident to at
	// least one s-owned object, over the full (global) object ID space and
	// tick domain — no remapping, so frontiers exchange global IDs.
	Parts []*contact.Network
	// CrossContacts counts the contacts whose endpoints live on different
	// shards (each duplicated into both endpoint shards); TotalContacts is
	// the undivided network's contact count.
	CrossContacts int
	TotalContacts int
}

// CrossRatio returns the fraction of contacts crossing the shard cut — the
// partition quality metric (0 for a perfectly local cut, 1-1/K expected
// for a uniform random one).
func (sp *Split) CrossRatio() float64 {
	if sp.TotalContacts == 0 {
		return 0
	}
	return float64(sp.CrossContacts) / float64(sp.TotalContacts)
}

// Cut splits net along the assignment: contacts with both endpoints in one
// shard go to that shard alone; cross-shard contacts are duplicated into
// both endpoint shards, so every shard's sub-network is complete for
// propagation steps touching its objects.
func Cut(net *contact.Network, a *Assignment) *Split {
	parts := make([][]contact.Contact, a.K)
	cross := 0
	for _, c := range net.Contacts {
		sa, sb := a.owner[c.A], a.owner[c.B]
		parts[sa] = append(parts[sa], c)
		if sb != sa {
			parts[sb] = append(parts[sb], c)
			cross++
		}
	}
	sp := &Split{
		Parts:         make([]*contact.Network, a.K),
		CrossContacts: cross,
		TotalContacts: len(net.Contacts),
	}
	for s := range sp.Parts {
		sp.Parts[s] = contact.FromContacts(net.NumObjects, net.NumTicks, parts[s])
	}
	return sp
}
