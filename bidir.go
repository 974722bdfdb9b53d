// Bidirectional cross-segment point queries.
//
// The forward plan (segmentedCore.reach) expands the reachable set of the
// source slab by slab until the destination's slab answers natively. On long
// intervals that frontier saturates: once most objects are infected, every
// further slab sweep expands nearly the whole population even though the
// answer may be decidable from the destination's side in a handful of
// contacts. The bidirectional planner maintains two walks — the forward
// reachable set of the source grown oldest-first, and the backward
// deliverer set of the destination grown newest-first — and on every step
// expands whichever is currently smaller, terminating as soon as they
// intersect. Meet semantics are exact under the hold-forever propagation
// model: when the planner tests F ∩ B, F is the holder set at the forward
// boundary T_f (start of the first unconsumed slab) and B the deliverer set
// from the backward boundary T_b (just past the last unconsumed slab), with
// T_f <= T_b; a common object holds the item at T_f, still holds it at T_b,
// and delivers from there to the destination by the interval end — forward
// arrival <= backward departure at the meeting object. Conversely, when the
// two boundaries close the gap (T_f == T_b) without an intersection, no
// holder delivers, so the negative answer is exact too.

package streach

import (
	"context"

	"streach/internal/pagefile"
	"streach/internal/queries"
)

// reachBidir is the bidirectional cross-segment point query. It grows the
// seeds' forward walk F oldest-first and the destination's backward
// (deliverer) walk B newest-first, always expanding the smaller of the two,
// and answers true as soon as they meet; see the file comment for why the
// meet test and the negative case are both exact. When a single unconsumed
// slab remains and the backward walk is still the bare destination, the
// slab's own point query answers instead — on short intervals this
// degenerates to the forward plan's terminal step (BM-BFS with destination
// early-exit), so bidirectional planning never regresses the short-interval
// fast path.
func (c *segmentedCore) reachBidir(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, acct *pagefile.Stats) (bool, int, error) {
	iv = clampDomain(iv, c.numTicks)
	if iv.Len() == 0 {
		return false, 0, nil
	}
	F, B := walkPool.Get(), walkPool.Get()
	defer walkPool.Put(F)
	defer walkPool.Put(B)
	F.reset(c.numObjects, hopAgnostic)
	for _, o := range seeds {
		F.admit(o, 0, iv.Lo)
	}
	B.reset(c.numObjects, hopAgnosticBackward)
	B.admit(dst, 0, iv.Hi)
	fi, bi := overlappingSlabs(c.slabs, iv)
	expanded := 0
	for {
		if err := ctx.Err(); err != nil {
			return false, expanded, err
		}
		if F.meets(B) {
			return true, expanded, nil
		}
		if fi > bi {
			// The forward and backward boundaries coincide and the walks
			// are disjoint: no holder delivers. Exact negative.
			return false, expanded, nil
		}
		if fi == bi && len(B.reached) == 1 {
			_, local := localInterval(c.slabs[fi].span, iv)
			ok, n, err := c.slabs[fi].core.reach(ctx, F.reached, dst, local, acct)
			return ok, expanded + n, err
		}
		var n int
		var err error
		if len(F.reached) <= len(B.reached) {
			n, err = F.step(ctx, c.slabs[fi], iv, dst, acct)
			fi++
		} else {
			n, err = B.step(ctx, c.slabs[bi], iv, queries.NoObject, acct)
			bi--
		}
		expanded += n
		if err != nil {
			return false, expanded, err
		}
	}
}
