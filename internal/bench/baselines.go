// The §6 baselines: SPJ (§6.1.2), GRAIL (Table 5) and the B-BFS, E-BFS and
// E-DFS traversals (Fig. 13). The paper uses them only as the marks
// ReachGrid and ReachGraph must beat, so the registry does not serve them:
// the lab builds each over the same data, with the parameters streach.Open
// gives the registry's indexes, and measures it through the same per-query
// cost loop as an Engine.
package bench

import (
	"context"
	"fmt"
	"time"

	"streach"
	"streach/internal/dn"
	"streach/internal/grail"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/reachgraph"
	"streach/internal/reachgrid"
	"streach/internal/trajectory"
)

// grailPasses is the GRAIL label count d.
const grailPasses = 5

// pointQuery answers one workload query with its typed cost; an Engine's
// Reachable is one.
type pointQuery func(context.Context, queries.Query) (streach.Result, error)

// spjBaseline builds the naive spatiotemporal-join pipeline over the
// ReachGrid layout of d at opts' resolutions.
func spjBaseline(d *trajectory.Dataset, opts streach.Options) pointQuery {
	ix, err := reachgrid.Build(d, reachgrid.Params{
		CellSize:    opts.CellSize,
		BucketTicks: opts.BucketTicks,
		PoolPages:   opts.PoolPages,
		Pool:        opts.Pool,
	})
	mustBuild("spj", d, err)
	return baseline(ix.Store(), ix.SPJReachCounted)
}

// grailBaseline builds GRAIL's interval labelling of d's reduced graph,
// disk-resident behind the default buffer pool or in memory.
func (l *Lab) grailBaseline(d *trajectory.Dataset, disk bool) pointQuery {
	g := dn.Build(l.Contacts(d))
	seed := l.opts.Seed + 9
	if !disk {
		m, err := grail.NewMem(g, grailPasses, seed)
		mustBuild("grail-mem", d, err)
		return baseline(nil, func(ctx context.Context, q queries.Query, _ *pagefile.Stats) (bool, int, error) {
			return m.ReachCounted(ctx, q)
		})
	}
	dk, err := grail.NewDisk(g, grailPasses, seed, 0, nil)
	mustBuild("grail", d, err)
	return baseline(dk.Store(), dk.ReachCounted)
}

// strategyBaseline builds the default disk ReachGraph of d and answers with
// traversal s in place of BM-BFS.
func (l *Lab) strategyBaseline(d *trajectory.Dataset, s reachgraph.Strategy) pointQuery {
	ix, err := reachgraph.Build(dn.Build(l.Contacts(d)), reachgraph.Params{})
	mustBuild(s.String(), d, err)
	return baseline(ix.Store(), func(ctx context.Context, q queries.Query, acct *pagefile.Stats) (bool, int, error) {
		return ix.ReachStrategyCounted(ctx, q, s, acct)
	})
}

// baseline wraps a built index's counted point query. Like streach.Open it
// first zeroes the store's counters and drops its pages from the pool —
// construction traffic is not query traffic — and it charges every query to
// an accountant of its own. st is nil for a memory-resident index.
func baseline(st *pagefile.Store, reach func(context.Context, queries.Query, *pagefile.Stats) (bool, int, error)) pointQuery {
	if st != nil {
		st.ResetCounters()
		st.DropCache()
	}
	return func(ctx context.Context, q queries.Query) (streach.Result, error) {
		var acct pagefile.Stats
		start := time.Now()
		ok, expanded, err := reach(ctx, q, &acct)
		return streach.Result{
			Query:     q,
			Reachable: ok,
			IO: streach.IOStats{
				RandomReads:     acct.RandomReads,
				SequentialReads: acct.SequentialReads,
				BufferHits:      acct.BufferHits,
				Normalized:      acct.Normalized(),
			},
			Latency:  time.Since(start),
			Expanded: expanded,
		}, err
	}
}

func mustBuild(what string, d *trajectory.Dataset, err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: build %s over %s: %v", what, d.Name, err))
	}
}
