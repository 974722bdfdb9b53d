// Package uncertain implements the §7 extension to uncertain contact
// networks: a contact transmits an item with probability p, a contact path
// succeeds with the product of its contacts' probabilities, and a query
// asks whether the destination is reachable with probability at least pT.
//
// Two engines answer the maximum-path-probability question and are
// cross-validated against each other:
//
//   - Sweep: a forward dynamic program over the query interval. At every
//     instant the active contacts relax the per-object best probability to
//     a fixpoint, so same-instant contact chains (a→b→c at one tick) are
//     honoured exactly as in the deterministic engines.
//   - Dijkstra: the shortest-path formulation the paper prescribes for
//     U-ReachGraph ("we adopt graph shortest path algorithms"), run over
//     the implicit time-expanded network with edge weights −log p. Holding
//     an item costs nothing; transfers cost −log p ≥ 0, so Dijkstra's
//     invariant applies and the search stops the moment the destination is
//     settled.
package uncertain

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"streach/internal/contact"
	"streach/internal/trajectory"
)

// Contact is an uncertain contact: the pair may transmit an item at any
// instant of Validity, each attempt succeeding with probability Prob.
// Weight and Dur carry the deterministic network's per-contact sidecar
// through the lift, so filtered probabilistic queries (min-duration,
// max-weight) evaluate against the same record the deterministic engines
// see.
type Contact struct {
	A, B     trajectory.ObjectID
	Validity contact.Interval
	Prob     float64
	Weight   float32
	Dur      int32
}

// Deterministic returns the contact record without its probability — the
// value per-contact predicates evaluate against.
func (c Contact) Deterministic() contact.Contact {
	return contact.Contact{A: c.A, B: c.B, Validity: c.Validity, Weight: c.Weight, Dur: c.Dur}
}

// Network is an uncertain contact network.
type Network struct {
	NumObjects int
	NumTicks   int
	Contacts   []Contact
}

// FromNetwork lifts a deterministic contact network into an uncertain one,
// assigning each contact the probability prob(c). Probabilities outside
// (0, 1] are clamped. The comparison is written so NaN drops the contact:
// `p <= 0` is false for NaN, which used to let NaN probabilities into the
// network, where they silently poison every downstream max/product DP
// (NaN fails both sides of a comparison, so relaxations never fire and
// never fail either).
func FromNetwork(net *contact.Network, prob func(contact.Contact) float64) *Network {
	un := &Network{NumObjects: net.NumObjects, NumTicks: net.NumTicks}
	for _, c := range net.Contacts {
		p := prob(c)
		if !(p > 0) { // rejects NaN as well as p ≤ 0
			continue
		}
		if p > 1 {
			p = 1
		}
		un.Contacts = append(un.Contacts, Contact{A: c.A, B: c.B, Validity: c.Validity,
			Prob: p, Weight: c.Weight, Dur: c.Dur})
	}
	return un
}

// Validate checks structural sanity.
func (n *Network) Validate() error {
	for _, c := range n.Contacts {
		if c.A < 0 || int(c.A) >= n.NumObjects || c.B < 0 || int(c.B) >= n.NumObjects {
			return fmt.Errorf("uncertain: contact %v outside object domain", c)
		}
		if c.Validity.Len() == 0 {
			return fmt.Errorf("uncertain: contact %v has empty validity", c)
		}
		// Negated-range form so NaN (which fails every comparison) is
		// rejected along with out-of-range values.
		if !(c.Prob > 0 && c.Prob <= 1) {
			return fmt.Errorf("uncertain: contact %v has probability %v", c, c.Prob)
		}
	}
	return nil
}

// Engine evaluates maximum-probability reachability over a network.
type Engine struct {
	net      *Network
	byTick   [][]int32 // contact indices active per tick (sweep DP)
	byObject [][]int32 // contact indices touching each object (Dijkstra)
}

// NewEngine indexes the network by tick and by object.
func NewEngine(n *Network) (*Engine, error) {
	if n.NumObjects <= 0 || n.NumTicks <= 0 {
		return nil, errors.New("uncertain: empty network")
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		net:      n,
		byTick:   make([][]int32, n.NumTicks),
		byObject: make([][]int32, n.NumObjects),
	}
	for i, c := range n.Contacts {
		lo, hi := c.Validity.Lo, c.Validity.Hi
		if lo < 0 {
			lo = 0
		}
		if int(hi) >= n.NumTicks {
			hi = trajectory.Tick(n.NumTicks - 1)
		}
		for t := lo; t <= hi; t++ {
			e.byTick[t] = append(e.byTick[t], int32(i))
		}
		e.byObject[c.A] = append(e.byObject[c.A], int32(i))
		e.byObject[c.B] = append(e.byObject[c.B], int32(i))
	}
	return e, nil
}

// clamp restricts iv to the network's time domain.
func (e *Engine) clamp(iv contact.Interval) contact.Interval {
	return iv.Intersect(contact.Interval{Lo: 0, Hi: trajectory.Tick(e.net.NumTicks - 1)})
}

func (e *Engine) checkObjects(objs ...trajectory.ObjectID) error {
	for _, o := range objs {
		if o < 0 || int(o) >= e.net.NumObjects {
			return fmt.Errorf("uncertain: object %d outside [0, %d)", o, e.net.NumObjects)
		}
	}
	return nil
}

// BestProb returns the maximum probability with which an item initiated by
// src at iv.Lo is held by dst by iv.Hi, via the forward sweep DP.
func (e *Engine) BestProb(src, dst trajectory.ObjectID, iv contact.Interval) (float64, error) {
	best, err := e.BestProbAll(src, iv)
	if err != nil {
		return 0, err
	}
	return best[dst], nil
}

// BestProbAll returns the per-object maximum receipt probabilities, the
// batch primitive for probabilistic epidemic analysis.
func (e *Engine) BestProbAll(src trajectory.ObjectID, iv contact.Interval) ([]float64, error) {
	if err := e.checkObjects(src); err != nil {
		return nil, err
	}
	best := make([]float64, e.net.NumObjects)
	iv = e.clamp(iv)
	if iv.Len() == 0 {
		return best, nil
	}
	best[src] = 1
	for t := iv.Lo; t <= iv.Hi; t++ {
		active := e.byTick[t]
		if len(active) == 0 {
			continue
		}
		// Relax to fixpoint: probabilities only increase and are bounded
		// by products of at most |active| contact factors, so this
		// terminates after at most |active| rounds.
		for changed := true; changed; {
			changed = false
			for _, ci := range active {
				c := &e.net.Contacts[ci]
				if p := best[c.A] * c.Prob; p > best[c.B] {
					best[c.B] = p
					changed = true
				}
				if p := best[c.B] * c.Prob; p > best[c.A] {
					best[c.A] = p
					changed = true
				}
			}
		}
	}
	return best, nil
}

// Reachable reports whether dst is reachable from src during iv with
// probability at least minProb (the pT threshold of §7).
func (e *Engine) Reachable(src, dst trajectory.ObjectID, iv contact.Interval, minProb float64) (bool, error) {
	if err := e.checkObjects(src, dst); err != nil {
		return false, err
	}
	if src == dst {
		return e.clamp(iv).Len() > 0, nil
	}
	p, err := e.BestProbDijkstra(src, dst, iv)
	if err != nil {
		return false, err
	}
	return p >= minProb, nil
}

// pqState is a Dijkstra state: object o holding the item at tick t after
// hops transfers. hops rides along for reporting; ordering and dominance
// stay on (cost, t).
type pqState struct {
	cost float64 // −log probability
	o    trajectory.ObjectID
	t    trajectory.Tick
	hops int32
}

type stateHeap []pqState

func (h stateHeap) Len() int            { return len(h) }
func (h stateHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h stateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x interface{}) { *h = append(*h, x.(pqState)) }
func (h *stateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// BestProbDijkstra returns the same quantity as BestProb via a
// cost-ordered search over the time-expanded network.
//
// States carry both a cost (−log probability) and an arrival time, and
// neither dominates alone: a costlier path that arrives earlier can use a
// contact that has expired by the time the cheaper path arrives. A state
// is therefore pruned only when another settled state of the same object is
// at least as early *and* at least as cheap (Pareto dominance). Pops are
// cost-ordered, so the first settled destination state carries the optimal
// probability.
func (e *Engine) BestProbDijkstra(src, dst trajectory.ObjectID, iv contact.Interval) (float64, error) {
	r, err := e.BestProbPath(src, dst, iv, PathOpts{})
	return r.Prob, err
}

// PathOpts modifies a BestProbPath search per query: a uniform probability,
// a contact predicate and a transfer budget. BestProbDijkstra passes the zero
// value; the one caller that sets options is the reference check
// TestUncertainDijkstraCrossValidation, which holds the root engine's
// semantic queries to this Dijkstra.
type PathOpts struct {
	// Prob, when > 0, overrides every contact's probability with one
	// per-query value (the uniform per-contact p of Query.Semantics.Prob).
	Prob float64
	// Filter, when set, restricts the search to contacts it accepts —
	// exact predicate-filtered propagation, no projection needed.
	Filter func(Contact) bool
	// MaxHops, when > 0, bounds the number of transfers on the path.
	MaxHops int32
}

// PathResult describes the best path found by BestProbPath.
type PathResult struct {
	// Prob is the maximum path probability; 0 when dst is unreachable.
	Prob float64
	// Arrival is the tick the best-probability path delivers the item
	// (not necessarily the overall earliest arrival: a lower-probability
	// path may arrive sooner).
	Arrival trajectory.Tick
	// Hops is that path's transfer count.
	Hops int
	// OK reports whether any qualifying path exists.
	OK bool
}

// BestProbPath is BestProbDijkstra with per-query options and a full path
// report: the maximum probability along with the best path's arrival tick
// and transfer count.
//
// States carry both a cost (−log probability) and an arrival time, and
// neither dominates alone: a costlier path that arrives earlier can use a
// contact that has expired by the time the cheaper path arrives. A state
// is therefore pruned only when another settled state of the same object
// is at least as early *and* at least as cheap (Pareto dominance). Pops
// are cost-ordered, so the first settled destination state carries the
// optimal probability.
func (e *Engine) BestProbPath(src, dst trajectory.ObjectID, iv contact.Interval, opts PathOpts) (PathResult, error) {
	if err := e.checkObjects(src, dst); err != nil {
		return PathResult{}, err
	}
	iv = e.clamp(iv)
	if iv.Len() == 0 {
		return PathResult{}, nil
	}
	if src == dst {
		return PathResult{Prob: 1, Arrival: iv.Lo, OK: true}, nil
	}
	budget := opts.MaxHops
	if budget <= 0 {
		budget = math.MaxInt32
	}
	type timeCost struct {
		t    trajectory.Tick
		cost float64
	}
	frontier := make([][]timeCost, e.net.NumObjects)
	dominated := func(o trajectory.ObjectID, t trajectory.Tick, cost float64) bool {
		for _, f := range frontier[o] {
			if f.t <= t && f.cost <= cost {
				return true
			}
		}
		return false
	}
	h := &stateHeap{{cost: 0, o: src, t: iv.Lo}}
	for h.Len() > 0 {
		s := heap.Pop(h).(pqState)
		if dominated(s.o, s.t, s.cost) {
			continue
		}
		frontier[s.o] = append(frontier[s.o], timeCost{s.t, s.cost})
		if s.o == dst {
			return PathResult{Prob: math.Exp(-s.cost), Arrival: s.t, Hops: int(s.hops), OK: true}, nil
		}
		if s.hops >= budget {
			continue
		}
		// Relax every contact of s.o active at or after s.t and within
		// the interval; the transfer cost is time-independent, so the
		// earliest availability max(s.t, Validity.Lo) dominates later
		// instants of the same contact.
		for _, ci := range e.byObject[s.o] {
			c := &e.net.Contacts[ci]
			if c.Validity.Hi < s.t || c.Validity.Lo > iv.Hi {
				continue
			}
			if opts.Filter != nil && !opts.Filter(*c) {
				continue
			}
			other := c.A
			if other == s.o {
				other = c.B
			}
			when := s.t
			if c.Validity.Lo > when {
				when = c.Validity.Lo
			}
			p := c.Prob
			if opts.Prob > 0 {
				p = opts.Prob
				if p > 1 {
					p = 1
				}
			}
			cost := s.cost - math.Log(p)
			if !dominated(other, when, cost) {
				heap.Push(h, pqState{cost: cost, o: other, t: when, hops: s.hops + 1})
			}
		}
	}
	return PathResult{}, nil
}
