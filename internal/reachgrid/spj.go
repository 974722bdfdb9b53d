// SPJ is the naïve baseline of §6.1.2: materialize the contact network C′
// relevant to the query interval by retrieving *all* trajectory segments
// that overlap it, then traverse C′ to verify reachability. It shares the
// ReachGrid store and layout, so the two approaches are compared on
// identical data placement — the difference measured is purely the guided
// expansion. It also shares the pooled sweep scratch, so the comparison
// holds on CPU cost as well.
package reachgrid

import (
	"context"
	"fmt"

	"streach/internal/pagefile"
	"streach/internal/queries"
)

// SPJReachCounted answers q by the full spatiotemporal-join pipeline: every
// cell of every bucket overlapping the query interval is read from disk,
// the per-instant contact graph is built by joining all buffered segments,
// and the item is propagated until the destination is found or the
// interval is exhausted. It returns the number of objects infected during
// propagation (src included). Page reads are charged to acct (which may be
// nil); all traversal state is pooled per-query scratch. The context is
// observed once per instant of the join sweep.
func (ix *Index) SPJReachCounted(ctx context.Context, q queries.Query, acct *pagefile.Stats) (bool, int, error) {
	if err := ix.validateQuery(q); err != nil {
		return false, 0, err
	}
	iv := ix.clampInterval(q.Interval)
	if iv.Len() == 0 {
		return false, 0, nil
	}
	if q.Src == q.Dst {
		return true, 1, nil
	}
	expanded := 1 // src
	sc, acct := ix.begin(acct)
	defer ix.pool.Put(sc)
	sc.seeds.Visit(int(q.Src))

	for bi := ix.bucketOf(iv.Lo); bi <= ix.bucketOf(iv.Hi) && bi < len(ix.buckets); bi++ {
		w := ix.buckets[bi].span.Intersect(iv)
		if w.Len() == 0 {
			continue
		}
		// Retrieve the entire bucket: every cell, in placement order
		// (mostly sequential reads — SPJ's one redeeming quality).
		sc.resetBucket(ix.numObjects, ix.grid.NumCells())
		for cell := 0; cell < ix.grid.NumCells(); cell++ {
			if err := ix.loadCell(bi, cell, sc, acct); err != nil {
				return false, expanded, fmt.Errorf("spj: %w", err)
			}
		}
		for t := w.Lo; t <= w.Hi; t++ {
			if err := ctx.Err(); err != nil {
				return false, expanded, err
			}
			// Every cell is buffered, so one spread closes the instant.
			for _, o := range ix.infectAt(sc, t) {
				expanded++
				if o == q.Dst {
					return true, expanded, nil
				}
			}
		}
	}
	return false, expanded, nil
}
