// Seeded Monte-Carlo estimation of probabilistic reachability (§7): when a
// query carries a per-contact transmission probability p, the exact
// quantity engines report is the best single-path probability p^minHops.
// The complementary quantity — the probability that dst is infected in at
// least one realization of the uncertain network, i.e. two-terminal
// network reliability — is #P-hard exactly; the documented fallback is
// this estimator. Each trial samples a world by keeping every contact
// independently with probability p (after predicate filtering) and runs a
// plain per-instant relaxation; the estimate is the fraction of worlds in
// which dst is reached. Reliability is always ≥ the best-path probability,
// and the two coincide as p → 0 (multi-path contributions are O(p^2)
// relative), which is what the bench gate checks on small low-p presets.
package queries

import (
	"context"
	"math/rand"

	"streach/internal/trajectory"
)

// MonteCarloReachable estimates the probability that q.Dst is reachable
// from q.Src within q.Interval when every contact (surviving the query's
// predicate filter) transmits independently with probability q.Semantics.
// Prob. It runs q.Semantics.MCTrials sampled worlds seeded from MCSeed and
// returns the success fraction; the hop budget applies per world (the
// probability threshold does NOT fold into the budget here — trials model
// it, the caller compares the estimate against τ). ctx is checked before
// every world; once it is done the estimate is abandoned with ctx.Err().
func (o *Oracle) MonteCarloReachable(ctx context.Context, q Query) (float64, error) {
	sem := q.Semantics
	trials := sem.MCTrials
	if trials <= 0 {
		trials = 1
	}
	p := sem.Prob
	if p > 1 {
		p = 1
	}
	if p <= 0 {
		return 0, nil
	}
	net := o.Filtered(sem.Filter()).Network()
	iv := q.Interval
	if iv.Lo < 0 {
		iv.Lo = 0
	}
	if int(iv.Hi) >= net.NumTicks {
		iv.Hi = trajectory.Tick(net.NumTicks) - 1
	}
	if q.Src == q.Dst {
		return 1, nil
	}
	if iv.Len() == 0 {
		return 0, nil
	}

	// Precompute, once per query, the contacts overlapping the interval and
	// a per-tick index of which of them are active — each of the trials then
	// replays only coin flips and relaxation.
	type mcContact struct {
		a, b   trajectory.ObjectID
		lo, hi trajectory.Tick
	}
	var cs []mcContact
	for _, c := range net.Contacts {
		if c.Validity.Overlaps(iv) {
			cs = append(cs, mcContact{a: c.A, b: c.B, lo: c.Validity.Lo, hi: c.Validity.Hi})
		}
	}
	if len(cs) == 0 {
		return 0, nil
	}
	ticks := iv.Len()
	atTick := make([][]int32, ticks)
	for i, c := range cs {
		lo, hi := c.lo, c.hi
		if lo < iv.Lo {
			lo = iv.Lo
		}
		if hi > iv.Hi {
			hi = iv.Hi
		}
		for t := lo; t <= hi; t++ {
			atTick[t-iv.Lo] = append(atTick[t-iv.Lo], int32(i))
		}
	}

	budget := sem.HopBudget()
	rng := rand.New(rand.NewSource(sem.MCSeed))
	alive := make([]bool, len(cs))
	hops := make([]int32, net.NumObjects)
	successes := 0
	for trial := 0; trial < trials; trial++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for i := range alive {
			alive[i] = rng.Float64() < p
		}
		for i := range hops {
			hops[i] = -1
		}
		hops[q.Src] = 0
		reached := false
		for ti := 0; ti < ticks && !reached; ti++ {
			edges := atTick[ti]
			// Relax the instant's surviving edges to fixpoint: transfer
			// within a contact is instantaneous, so an item crosses whole
			// chains within one tick, each edge costing one hop.
			for changed := true; changed && !reached; {
				changed = false
				for _, ei := range edges {
					if !alive[ei] {
						continue
					}
					c := cs[ei]
					ha, hb := hops[c.a], hops[c.b]
					if ha >= 0 && ha < budget && (hb < 0 || hb > ha+1) {
						hops[c.b] = ha + 1
						changed = true
					} else if hb >= 0 && hb < budget && (ha < 0 || ha > hb+1) {
						hops[c.a] = hb + 1
						changed = true
					}
				}
				if hops[q.Dst] >= 0 {
					reached = true
				}
			}
		}
		if reached {
			successes++
		}
	}
	return float64(successes) / float64(trials), nil
}
