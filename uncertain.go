// The uncertain:* backend family: §7's probabilistic contact-network
// engines lifted into the registry. An "uncertain:<base>" backend wraps any
// base with a disk-resident contact store — time-bucketed blobs in the
// contact codec, which carries the per-contact weight/duration sidecar —
// and answers every forward sweep natively: plain, filtered and
// hop-bounded profiles evaluate over the decoded, predicate-projected
// network, charging real blob reads to the query's accountant, while
// boolean point queries delegate to the base index untouched.
//
// For probabilistic point queries the facade's profile evaluation reports
// Prob = p^minHops under the τ-folded budget — exactly the maximum path
// probability the paper's −log p Dijkstra computes for a uniform per-
// contact p (minimal cost ⇔ minimal transfers). The Dijkstra itself
// (internal/uncertain) is the core's cross-validation surface: probPath
// runs it over the same decoded store, and tests assert the two
// formulations agree query-by-query; the bench harness additionally gates
// the seeded Monte-Carlo fallback against it on small presets.

package streach

import (
	"context"
	"fmt"

	"streach/internal/contact"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/uncertain"
)

// uncertainBucketTicks is the validity-start width of one contact bucket.
// Buckets are skipped per query via their recorded [lo, maxHi] coverage, so
// the width only trades blob count against decode granularity.
const uncertainBucketTicks = 64

// uncertainBucket locates one encoded contact blob: ref addresses the blob
// in the store, lo is the smallest Validity.Lo of its contacts and maxHi
// the largest Validity.Hi — a query interval disjoint from [lo, maxHi]
// skips the bucket without reading it.
type uncertainBucket struct {
	ref   pagefile.BlobRef
	lo    Tick
	maxHi Tick
}

// uncertainCore wraps a base core with the bucketed contact store.
type uncertainCore struct {
	base       core
	store      *pagefile.Store
	buckets    []uncertainBucket
	numObjects int
	numTicks   int
}

func buildUncertainCore(base backendSpec, src Source, opts Options) (core, error) {
	// The base index and the contact store share one pool.
	opts = withSharedPool(opts, base.info.DiskResident)
	bc, err := base.build(src, opts)
	if err != nil {
		return nil, err
	}
	net := src.sourceContacts().net
	c := &uncertainCore{
		base:       bc,
		store:      pagefile.NewStoreWith(opts.Pool, opts.PoolPages),
		numObjects: net.NumObjects,
		numTicks:   net.NumTicks,
	}
	// Contacts are sorted by Validity.Lo, so bucketing by start tick is one
	// linear pass and every bucket's blob stays codec-normalized.
	enc := pagefile.NewEncoder(1 << 12)
	flush := func(cs []contact.Contact) {
		if len(cs) == 0 {
			return
		}
		lo, maxHi := cs[0].Validity.Lo, cs[0].Validity.Hi
		for _, cc := range cs[1:] {
			if cc.Validity.Hi > maxHi {
				maxHi = cc.Validity.Hi
			}
		}
		enc.Reset()
		contact.AppendContactsBlob(enc, cs)
		c.buckets = append(c.buckets, uncertainBucket{ref: c.store.AppendBlob(enc.Bytes()), lo: lo, maxHi: maxHi})
	}
	var group []contact.Contact
	groupBucket := int64(-1)
	for _, cc := range net.Contacts {
		b := int64(cc.Validity.Lo) / uncertainBucketTicks
		if b != groupBucket && len(group) > 0 {
			flush(group)
			group = group[:0]
		}
		groupBucket = b
		group = append(group, cc)
	}
	flush(group)
	return c, nil
}

// loadNetwork decodes the buckets overlapping iv, keeps the contacts that
// overlap iv and pass f, and assembles them into a network over the full
// object/tick domain. Blob reads are charged to acct.
func (c *uncertainCore) loadNetwork(iv Interval, f queries.Filter, acct *pagefile.Stats) (*contact.Network, error) {
	var kept []contact.Contact
	for _, b := range c.buckets {
		if b.maxHi < iv.Lo || b.lo > iv.Hi {
			continue
		}
		data, err := pagefile.Whole(c.store.ReadBlob(b.ref, acct))
		if err != nil {
			return nil, err
		}
		cs, err := contact.DecodeContactsBlob(pagefile.NewDecoder(data))
		if err != nil {
			return nil, err
		}
		for _, cc := range cs {
			if cc.Validity.Overlaps(iv) && (!f.Active() || f.Match(cc)) {
				kept = append(kept, cc)
			}
		}
	}
	return contact.FromContacts(c.numObjects, c.numTicks, kept), nil
}

// Boolean point queries ride the base index.
func (c *uncertainCore) reach(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, acct *pagefile.Stats) (bool, int, error) {
	return c.base.reach(ctx, seeds, dst, iv, acct)
}

func (c *uncertainCore) disk() diskIO {
	var d diskIO
	d.merge(c.base.disk())
	d.merge(onDisk(c.store))
	return d
}

// Every forward spec is native over the decoded store, whatever the base
// supports.
func (c *uncertainCore) supports(spec semSpec) bool { return spec.dir == forward }

func (c *uncertainCore) sweep(_ context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, early ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	if !c.supports(spec) {
		return out, 0, errNotNative
	}
	net, err := c.loadNetwork(iv, spec.filter, acct)
	if err != nil {
		return out, 0, err
	}
	entries, n := queries.NewOracle(net).ProfileFrom(seeds, iv, spec.budget, early)
	return append(out, entries...), n, nil
}

// probPath runs the paper's exact −log p Dijkstra (internal/uncertain)
// over the decoded store for one probabilistic point query: the uniform
// per-contact probability and the query's contact predicate thread through
// PathOpts, the τ-folded budget bounds the transfer count. Tests and the
// bench harness use it to cross-validate the facade's p^minHops answers
// and the Monte-Carlo estimator against the shortest-path formulation.
func (c *uncertainCore) probPath(q Query, acct *pagefile.Stats) (uncertain.PathResult, error) {
	sem := q.Semantics
	iv := clampDomain(q.Interval, c.numTicks)
	if iv.Len() == 0 {
		return uncertain.PathResult{}, nil
	}
	net, err := c.loadNetwork(iv, queries.Filter{}, acct)
	if err != nil {
		return uncertain.PathResult{}, err
	}
	p := sem.Prob
	if p <= 0 || p > 1 {
		p = 1
	}
	un := uncertain.FromNetwork(net, func(contact.Contact) float64 { return p })
	if len(un.Contacts) == 0 {
		if q.Src == q.Dst {
			return uncertain.PathResult{Prob: 1, Arrival: iv.Lo, OK: true}, nil
		}
		return uncertain.PathResult{}, nil
	}
	eng, err := uncertain.NewEngine(un)
	if err != nil {
		return uncertain.PathResult{}, err
	}
	popts := uncertain.PathOpts{Prob: p}
	if f := sem.Filter(); f.Active() {
		popts.Filter = func(uc uncertain.Contact) bool { return f.Match(uc.Deterministic()) }
	}
	if b := sem.EffectiveBudget(); b != queries.UnboundedHops {
		if b <= 0 {
			// A zero budget admits no transfer at all; PathOpts.MaxHops ≤ 0
			// means unbounded, so answer the degenerate case here.
			if q.Src == q.Dst {
				return uncertain.PathResult{Prob: 1, Arrival: iv.Lo, OK: true}, nil
			}
			return uncertain.PathResult{}, nil
		}
		popts.MaxHops = b
	}
	return eng.BestProbPath(q.Src, q.Dst, iv, popts)
}

// uncertainOver is the "uncertain:" combinator. Boolean point queries
// delegate to the base index, so the wrapper's disk residency is the base's;
// the contact store additionally charges blob reads on sweeps.
func uncertainOver(base backendSpec) backendSpec {
	return backendSpec{
		info: BackendInfo{
			Name:              "uncertain:" + base.info.Name,
			Description:       fmt.Sprintf("uncertain contact store over %s: filtered + probabilistic queries native (§7)", base.info.Name),
			DiskResident:      base.info.DiskResident,
			NeedsTrajectories: base.info.NeedsTrajectories,
		},
		open: func(src Source, opts Options) (core, error) {
			return buildUncertainCore(base, src, opts)
		},
		base: &base,
	}
}
