// Package streach answers reachability queries over large spatiotemporal
// contact datasets, reproducing Shirani-Mehr, Banaei-Kashani & Shahabi,
// "Efficient Reachability Query Evaluation in Large Spatiotemporal Contact
// Datasets", PVLDB 5(9), 2012.
//
// A contact dataset records the trajectories of a set of moving objects. Two
// objects are in contact at an instant when their distance is below the
// dataset's contact threshold dT; an item (virus, message, malware) hops
// between objects through the evolving network of contacts. The reachability
// query Src ⤳ Dst over a time interval asks whether an item initiated by
// Src at the interval start can reach Dst through a time-respecting chain of
// contacts within the interval.
//
// The package offers two disk-resident indexes from the paper plus
// extensions:
//
//   - ReachGrid (§4): a spatiotemporal grid over trajectory segments;
//     queries expand the contact network on the fly, guided through the
//     spatial and temporal localities that can contain newly reachable
//     objects, with early termination.
//   - ReachGraph (§5): the contact network is reduced to a DAG of connected
//     component runs, augmented with multi-resolution reachability "long
//     edges", partitioned in topological order on disk, and traversed with
//     a bidirectional multi-resolution BFS (BM-BFS).
//   - Extensions (§7): uncertain contact networks (transmission
//     probabilities with threshold queries) and non-immediate contacts
//     (items with a lifetime deposited in the environment).
//
// Disk residency is simulated: indexes are laid out on a paged store that
// counts random and sequential page accesses, reproducing the paper's
// evaluation metric (one random access costs as much as 20 sequential
// accesses) without physical disks.
//
// # Quick start
//
// Every evaluator is registered in a backend registry under a stable name
// (Backends lists them) and satisfies the Engine interface; queries return
// typed Results carrying the answer, the per-query I/O delta, wall latency
// and an expansion counter:
//
//	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
//		NumObjects: 500, NumTicks: 2000, Seed: 1,
//	})
//	eng, err := streach.Open("reachgraph", ds, streach.Options{})
//	if err != nil { ... }
//	res, err := eng.Reachable(ctx, streach.Query{
//		Src: 3, Dst: 11, Interval: streach.NewInterval(100, 400),
//	})
//	// res.Reachable, res.IO.Normalized, res.Latency, res.Expanded
//
// EvaluateBatch drives a query batch through an engine with a bounded
// worker pool and context cancellation, and LiveEngine serves the same
// queries over a feed while it is being ingested. Two §7 extensions the
// registry cannot express keep their own types: UncertainNetwork
// (per-contact transmission probabilities; every registry engine answers
// uniform-p queries through Semantics.Prob) and NonImmediate (the exact
// environmental-lifetime engine).
package streach

import (
	"math/rand"
	"sync"

	"streach/internal/contact"
	"streach/internal/geo"
	"streach/internal/mobility"
	"streach/internal/nonimmediate"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/reachgraph"
	"streach/internal/trajectory"
	"streach/internal/uncertain"
)

// ObjectID identifies a moving object; IDs are dense and start at 0.
type ObjectID = trajectory.ObjectID

// Tick is a discrete time instant of a dataset's time domain.
type Tick = trajectory.Tick

// Point is a position in the plane (metres).
type Point = geo.Point

// Rect is an axis-aligned rectangle, used for spatial environments.
type Rect = geo.Rect

// NewEnv returns a width×height environment anchored at the origin.
func NewEnv(width, height float64) Rect {
	return geo.NewRect(Point{}, Point{X: width, Y: height})
}

// Interval is a closed interval of ticks.
type Interval = contact.Interval

// NewInterval returns the closed interval [lo, hi].
func NewInterval(lo, hi Tick) Interval { return Interval{Lo: lo, Hi: hi} }

// Query is a reachability query Src ⤳ Dst over Interval.
type Query = queries.Query

// Contact is one contact between two objects with its validity interval.
type Contact = contact.Contact

// WorkloadOptions configures RandomQueries; the zero value reproduces the
// paper's workload (random endpoints, interval length uniform in
// [150, 350]).
type WorkloadOptions = queries.WorkloadConfig

// RandomQueries generates a random query workload.
func RandomQueries(opts WorkloadOptions) []Query { return queries.RandomWorkload(opts) }

// RWPOptions configures the random-waypoint generator (individuals with
// Bluetooth-range contacts; the RWP datasets of §6).
type RWPOptions = mobility.RWPConfig

// VNOptions configures the road-network vehicle generator (vehicles with
// DSRC-range contacts; the VN datasets of §6).
type VNOptions = mobility.VNConfig

// TaxiOptions configures the taxi-day generator (the stand-in for the
// paper's Beijing GPS dataset, VNR).
type TaxiOptions = mobility.TaxiConfig

// ClusteredOptions configures the clustered-mobility generator (objects
// orbiting home regions with rare cross-region roaming — the workload a
// spatial partitioner keeps shard-local).
type ClusteredOptions = mobility.ClusteredConfig

// Dataset is a contact dataset: trajectories of all objects over a common
// discrete time domain plus the contact threshold metadata.
type Dataset struct {
	d *trajectory.Dataset

	cnOnce sync.Once
	cn     *ContactNetwork
}

// GenerateRandomWaypoint synthesizes an RWP dataset.
func GenerateRandomWaypoint(opts RWPOptions) *Dataset {
	return &Dataset{d: mobility.RandomWaypoint(opts)}
}

// GenerateVehicles synthesizes a road-network vehicle dataset.
func GenerateVehicles(opts VNOptions) *Dataset {
	return &Dataset{d: mobility.NetworkVehicles(opts)}
}

// GenerateTaxiDay synthesizes a day of hotspot-biased taxi trips.
func GenerateTaxiDay(opts TaxiOptions) *Dataset {
	return &Dataset{d: mobility.TaxiDay(opts)}
}

// GenerateClustered synthesizes a clustered-mobility dataset.
func GenerateClustered(opts ClusteredOptions) *Dataset {
	return &Dataset{d: mobility.Clustered(opts)}
}

// Name returns the dataset's display name (e.g. "RWP500").
func (ds *Dataset) Name() string { return ds.d.Name }

// NumObjects returns |O|.
func (ds *Dataset) NumObjects() int { return ds.d.NumObjects() }

// NumTicks returns |T|.
func (ds *Dataset) NumTicks() int { return ds.d.NumTicks() }

// Env returns the spatial environment.
func (ds *Dataset) Env() Rect { return ds.d.Env }

// ContactDist returns the contact threshold dT in metres.
func (ds *Dataset) ContactDist() float64 { return ds.d.ContactDist }

// SizeBytes returns the raw trajectory data volume (the Table 2 metric).
func (ds *Dataset) SizeBytes() int64 { return ds.d.SizeBytes() }

// Position returns object o's position at tick t (clamped to its samples).
func (ds *Dataset) Position(o ObjectID, t Tick) Point { return ds.d.Traj(o).AtClamped(t) }

// Contacts extracts the dataset's contact network by a window trajectory
// self-join over the full time domain. The extraction runs once; subsequent
// calls (including the ones Open performs for graph-based backends) return
// the same network.
func (ds *Dataset) Contacts() *ContactNetwork {
	ds.cnOnce.Do(func() {
		ds.cn = &ContactNetwork{net: contact.Extract(ds.d)}
	})
	return ds.cn
}

// ContactNetwork is the materialized contact network C of a dataset.
type ContactNetwork struct {
	net *contact.Network
}

// NumContacts returns |C|, the number of distinct contacts (a pair meeting,
// parting and re-meeting counts twice).
func (cn *ContactNetwork) NumContacts() int { return cn.net.NumContacts() }

// NumObjects returns |O|.
func (cn *ContactNetwork) NumObjects() int { return cn.net.NumObjects }

// NumTicks returns |T|.
func (cn *ContactNetwork) NumTicks() int { return cn.net.NumTicks }

// All returns a copy of the contact records.
func (cn *ContactNetwork) All() []Contact {
	return append([]Contact(nil), cn.net.Contacts...)
}

// Oracle returns a brute-force reference evaluator over the network. It is
// exact but unindexed — O(|O|·|Tp|) per query — and serves as ground truth
// for validating the indexes.
func (cn *ContactNetwork) Oracle() *Oracle {
	return &Oracle{o: queries.NewOracle(cn.net)}
}

// Oracle evaluates queries by direct propagation simulation.
type Oracle struct {
	o *queries.Oracle
}

// Reachable answers q against ground truth.
func (o *Oracle) Reachable(q Query) bool { return o.o.Reachable(q) }

// ReachableSet returns all objects reachable from src during iv.
func (o *Oracle) ReachableSet(src ObjectID, iv Interval) []ObjectID {
	return o.o.ReachableSet(src, iv)
}

// IOStats reports the simulated disk traffic of an index.
type IOStats struct {
	// RandomReads and SequentialReads count page fetches that missed the
	// buffer pool; a read is sequential when it targets the physical
	// successor of the previously read page.
	RandomReads     int64
	SequentialReads int64
	// BufferHits counts pool hits (free).
	BufferHits int64
	// Normalized is the paper's metric: random + sequential/20.
	Normalized float64
}

func statsOf(s pagefile.Stats) IOStats {
	return IOStats{
		RandomReads:     s.RandomReads,
		SequentialReads: s.SequentialReads,
		BufferHits:      s.BufferHits,
		Normalized:      s.Normalized(),
	}
}

// Strategy names a ReachGraph traversal algorithm (§5.2). The registry's
// "reachgraph" backends run BMBFS; the §6.2.2 baselines B-BFS, E-BFS and
// E-DFS run only in the paper's lab (internal/bench).
type Strategy = reachgraph.Strategy

// BMBFS is bidirectional multi-resolution BFS, the paper's algorithm.
const BMBFS = reachgraph.BMBFS

// UncertainNetwork is a contact network whose contacts transmit with a
// probability (§7).
type UncertainNetwork struct {
	engine *uncertain.Engine
}

// Uncertain lifts the network into an uncertain one, assigning every
// contact the probability prob(c) (clamped to (0, 1]; non-positive values
// drop the contact).
func (cn *ContactNetwork) Uncertain(prob func(Contact) float64) (*UncertainNetwork, error) {
	e, err := uncertain.NewEngine(uncertain.FromNetwork(cn.net, prob))
	if err != nil {
		return nil, err
	}
	return &UncertainNetwork{engine: e}, nil
}

// UncertainUniform lifts the network with one fixed transmission
// probability per contact instant.
func (cn *ContactNetwork) UncertainUniform(p float64) (*UncertainNetwork, error) {
	return cn.Uncertain(func(Contact) float64 { return p })
}

// UncertainRandom lifts the network with i.i.d. uniform probabilities in
// [lo, hi], seeded for reproducibility.
func (cn *ContactNetwork) UncertainRandom(lo, hi float64, seed int64) (*UncertainNetwork, error) {
	rng := rand.New(rand.NewSource(seed))
	return cn.Uncertain(func(Contact) float64 { return lo + (hi-lo)*rng.Float64() })
}

// BestProb returns the maximum probability with which an item initiated by
// src at iv.Lo is held by dst by iv.Hi.
func (un *UncertainNetwork) BestProb(src, dst ObjectID, iv Interval) (float64, error) {
	return un.engine.BestProbDijkstra(src, dst, iv)
}

// Reachable reports whether dst is reachable from src during iv with
// probability at least minProb.
func (un *UncertainNetwork) Reachable(src, dst ObjectID, iv Interval, minProb float64) (bool, error) {
	return un.engine.Reachable(src, dst, iv, minProb)
}

// BestProbAll returns per-object maximum receipt probabilities.
func (un *UncertainNetwork) BestProbAll(src ObjectID, iv Interval) ([]float64, error) {
	return un.engine.BestProbAll(src, iv)
}

// NonImmediate is a contact network under non-immediate semantics: items
// deposited in the environment survive for a lifetime (§7).
type NonImmediate struct {
	engine *nonimmediate.Engine
}

// ExtractNonImmediate joins ds against its replicated trajectories: an item
// deposited at instant t can be picked up within dT of the deposit position
// until t+lifetimeTicks.
func ExtractNonImmediate(ds *Dataset, lifetimeTicks int) (*NonImmediate, error) {
	cs := nonimmediate.Extract(ds.d, lifetimeTicks)
	e, err := nonimmediate.NewEngine(ds.NumObjects(), ds.NumTicks(), cs)
	if err != nil {
		return nil, err
	}
	return &NonImmediate{engine: e}, nil
}

// NonImmediateContacts extracts ds's non-immediate contacts with the given
// item lifetime (in ticks) and folds them into an undirected contact
// network that any registry backend can index. At lifetime 0 this is
// exactly Contacts(); for positive lifetimes the projection is a
// conservative over-approximation of the directed semantics (use
// ExtractNonImmediate for exact directed answers).
func (ds *Dataset) NonImmediateContacts(lifetimeTicks int) *ContactNetwork {
	cs := nonimmediate.Extract(ds.d, lifetimeTicks)
	return &ContactNetwork{net: nonimmediate.ProjectNetwork(ds.NumObjects(), ds.NumTicks(), cs)}
}

// Reachable answers q under non-immediate semantics.
func (ni *NonImmediate) Reachable(q Query) (bool, error) { return ni.engine.Reachable(q) }

// ReachableSet returns every object holding the item by the end of iv.
func (ni *NonImmediate) ReachableSet(src ObjectID, iv Interval) ([]ObjectID, error) {
	return ni.engine.ReachableSet(src, iv)
}

// InfectionTimes returns each object's earliest receipt instant (−1 for
// never).
func (ni *NonImmediate) InfectionTimes(src ObjectID, iv Interval) ([]Tick, error) {
	return ni.engine.InfectionTimes(src, iv)
}
