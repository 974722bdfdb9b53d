package uncertain

import (
	"math"
	"math/rand"
	"testing"

	"streach/internal/contact"
	"streach/internal/queries"
	"streach/internal/testgen"
)

// handNetwork builds the worked example used by several tests:
//
//	0 —0.5— 1 at ticks [0,1]
//	1 —0.8— 2 at tick  [3,3]
//	0 —0.9— 3 at tick  [2,2]
//	3 —0.9— 2 at tick  [4,4]
//
// Best 0→2 paths: via 1 = 0.4, via 3 = 0.81.
func handNetwork() *Network {
	return &Network{
		NumObjects: 4,
		NumTicks:   6,
		Contacts: []Contact{
			{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 1}, Prob: 0.5},
			{A: 1, B: 2, Validity: contact.Interval{Lo: 3, Hi: 3}, Prob: 0.8},
			{A: 0, B: 3, Validity: contact.Interval{Lo: 2, Hi: 2}, Prob: 0.9},
			{A: 2, B: 3, Validity: contact.Interval{Lo: 4, Hi: 4}, Prob: 0.9},
		},
	}
}

func TestHandExample(t *testing.T) {
	e, err := NewEngine(handNetwork())
	if err != nil {
		t.Fatal(err)
	}
	iv := contact.Interval{Lo: 0, Hi: 5}
	p, err := e.BestProb(0, 2, iv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.81) > 1e-12 {
		t.Fatalf("BestProb(0→2) = %v, want 0.81", p)
	}
	pd, err := e.BestProbDijkstra(0, 2, iv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pd-0.81) > 1e-12 {
		t.Fatalf("Dijkstra(0→2) = %v, want 0.81", pd)
	}
	// Threshold queries around the optimum.
	if ok, _ := e.Reachable(0, 2, iv, 0.8); !ok {
		t.Error("Reachable at pT=0.8: want true")
	}
	if ok, _ := e.Reachable(0, 2, iv, 0.82); ok {
		t.Error("Reachable at pT=0.82: want false")
	}
}

// TestEarlierCostlierPath exercises the Pareto case: the cheaper path into
// an intermediate object arrives too late for the onward contact, so the
// optimum must route through the costlier-but-earlier arrival.
func TestEarlierCostlierPath(t *testing.T) {
	n := &Network{
		NumObjects: 4,
		NumTicks:   10,
		Contacts: []Contact{
			// Expensive early arrival at object 2.
			{A: 0, B: 2, Validity: contact.Interval{Lo: 0, Hi: 0}, Prob: 0.3},
			// Cheap late arrival at object 2 via object 1.
			{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 0}, Prob: 0.9},
			{A: 1, B: 2, Validity: contact.Interval{Lo: 6, Hi: 6}, Prob: 0.9},
			// Onward contact expires before the cheap arrival.
			{A: 2, B: 3, Validity: contact.Interval{Lo: 2, Hi: 2}, Prob: 1.0},
		},
	}
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	iv := contact.Interval{Lo: 0, Hi: 9}
	want := 0.3
	p, _ := e.BestProb(0, 3, iv)
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("sweep BestProb(0→3) = %v, want %v", p, want)
	}
	pd, _ := e.BestProbDijkstra(0, 3, iv)
	if math.Abs(pd-want) > 1e-12 {
		t.Fatalf("Dijkstra BestProb(0→3) = %v, want %v", pd, want)
	}
}

func TestSameInstantChain(t *testing.T) {
	n := &Network{
		NumObjects: 3,
		NumTicks:   2,
		Contacts: []Contact{
			{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 0}, Prob: 0.5},
			{A: 1, B: 2, Validity: contact.Interval{Lo: 0, Hi: 0}, Prob: 0.5},
		},
	}
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := e.BestProb(0, 2, contact.Interval{Lo: 0, Hi: 0})
	if math.Abs(p-0.25) > 1e-12 {
		t.Fatalf("same-instant chain: %v, want 0.25", p)
	}
}

func TestSweepAgreesWithDijkstraRandom(t *testing.T) {
	net := testgen.Spec{Objects: 40, Ticks: 250, Seed: 41}.Network()
	rng := rand.New(rand.NewSource(43))
	un := FromNetwork(net, func(contact.Contact) float64 {
		return 0.2 + 0.8*rng.Float64()
	})
	e, err := NewEngine(un)
	if err != nil {
		t.Fatal(err)
	}
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: 40, NumTicks: 250, Count: 80, MinLen: 20, MaxLen: 200, Seed: 47,
	})
	for _, q := range work {
		a, err := e.BestProb(q.Src, q.Dst, q.Interval)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.BestProbDijkstra(q.Src, q.Dst, q.Interval)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("%v: sweep %v, dijkstra %v", q, a, b)
		}
	}
}

// TestCertainNetworkMatchesDeterministicOracle pins the p=1 special case to
// the deterministic reachability semantics.
func TestCertainNetworkMatchesDeterministicOracle(t *testing.T) {
	net := testgen.Spec{Objects: 35, Ticks: 200, Seed: 53}.Network()
	oracle := queries.NewOracle(net)
	un := FromNetwork(net, func(contact.Contact) float64 { return 1 })
	e, err := NewEngine(un)
	if err != nil {
		t.Fatal(err)
	}
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: 35, NumTicks: 200, Count: 80, MinLen: 10, MaxLen: 150, Seed: 59,
	})
	for _, q := range work {
		want := oracle.Reachable(q)
		got, err := e.Reachable(q.Src, q.Dst, q.Interval, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: uncertain %v, oracle %v", q, got, want)
		}
	}
}

func TestValidationAndDegenerates(t *testing.T) {
	if _, err := NewEngine(&Network{}); err == nil {
		t.Error("empty network: want error")
	}
	bad := handNetwork()
	bad.Contacts[0].Prob = 1.5
	if _, err := NewEngine(bad); err == nil {
		t.Error("probability > 1: want error")
	}
	e, err := NewEngine(handNetwork())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.BestProb(-1, 0, contact.Interval{Lo: 0, Hi: 1}); err == nil {
		t.Error("bad source: want error")
	}
	p, err := e.BestProb(0, 2, contact.Interval{Lo: 3, Hi: 1})
	if err != nil || p != 0 {
		t.Errorf("empty interval: got (%v, %v)", p, err)
	}
	ok, err := e.Reachable(2, 2, contact.Interval{Lo: 0, Hi: 1}, 1)
	if err != nil || !ok {
		t.Errorf("self query: got (%v, %v)", ok, err)
	}
	// FromNetwork drops non-positive probabilities and clamps p > 1.
	det := contact.FromContacts(2, 5, []contact.Contact{
		{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 1}},
	})
	un := FromNetwork(det, func(contact.Contact) float64 { return -1 })
	if len(un.Contacts) != 0 {
		t.Errorf("negative probability not dropped: %v", un.Contacts)
	}
	un = FromNetwork(det, func(contact.Contact) float64 { return 7 })
	if len(un.Contacts) != 1 || un.Contacts[0].Prob != 1 {
		t.Errorf("probability not clamped: %v", un.Contacts)
	}
}

func TestBestProbAllMonotoneInInterval(t *testing.T) {
	net := testgen.Spec{Objects: 30, Ticks: 150, Seed: 61}.Network()
	rng := rand.New(rand.NewSource(67))
	un := FromNetwork(net, func(contact.Contact) float64 { return 0.3 + 0.7*rng.Float64() })
	e, err := NewEngine(un)
	if err != nil {
		t.Fatal(err)
	}
	short, err := e.BestProbAll(3, contact.Interval{Lo: 10, Hi: 60})
	if err != nil {
		t.Fatal(err)
	}
	long, err := e.BestProbAll(3, contact.Interval{Lo: 10, Hi: 140})
	if err != nil {
		t.Fatal(err)
	}
	for o := range short {
		if long[o] < short[o]-1e-12 {
			t.Fatalf("object %d: widening the interval reduced probability %v → %v",
				o, short[o], long[o])
		}
	}
}

// TestNaNProbabilityRejected pins the NaN clamping fix: NaN fails every
// comparison, so the old `p <= 0` / `Prob <= 0 || Prob > 1` guards let it
// through, and a single NaN contact silently disabled every relaxation it
// touched.
func TestNaNProbabilityRejected(t *testing.T) {
	det := contact.FromContacts(2, 5, []contact.Contact{
		{A: 0, B: 1, Validity: contact.Interval{Lo: 0, Hi: 1}},
	})
	un := FromNetwork(det, func(contact.Contact) float64 { return math.NaN() })
	if len(un.Contacts) != 0 {
		t.Fatalf("NaN probability not dropped by FromNetwork: %v", un.Contacts)
	}
	bad := handNetwork()
	bad.Contacts[0].Prob = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a NaN probability")
	}
	if _, err := NewEngine(bad); err == nil {
		t.Fatal("NewEngine accepted a NaN probability")
	}
}

func TestFromNetworkKeepsSidecar(t *testing.T) {
	det := contact.FromContacts(2, 8, []contact.Contact{
		{A: 0, B: 1, Validity: contact.Interval{Lo: 1, Hi: 3}, Weight: 2.5, Dur: 9},
	})
	un := FromNetwork(det, func(contact.Contact) float64 { return 0.5 })
	if len(un.Contacts) != 1 {
		t.Fatalf("lifted %d contacts, want 1", len(un.Contacts))
	}
	c := un.Contacts[0]
	if c.Weight != 2.5 || c.Dur != 9 {
		t.Fatalf("sidecar lost in lift: %+v", c)
	}
	d := c.Deterministic()
	if d.Weight != 2.5 || d.Dur != 9 || d.A != 0 || d.B != 1 {
		t.Fatalf("Deterministic() = %+v", d)
	}
}

func TestBestProbPathOptions(t *testing.T) {
	e, err := NewEngine(handNetwork())
	if err != nil {
		t.Fatal(err)
	}
	iv := contact.Interval{Lo: 0, Hi: 5}
	// Baseline: best 0→2 path goes 0-3-2 (0.81) in two hops, arriving at 4.
	r, err := e.BestProbPath(0, 2, iv, PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK || math.Abs(r.Prob-0.81) > 1e-12 || r.Hops != 2 || r.Arrival != 4 {
		t.Fatalf("baseline path = %+v", r)
	}
	// Uniform probability override: both 2-hop paths now score p².
	r, _ = e.BestProbPath(0, 2, iv, PathOpts{Prob: 0.6})
	if !r.OK || math.Abs(r.Prob-0.36) > 1e-12 || r.Hops != 2 {
		t.Fatalf("override path = %+v", r)
	}
	// Filtering out object 3's contacts forces the 0-1-2 route (0.4).
	noThree := func(c Contact) bool { return c.A != 3 && c.B != 3 }
	r, _ = e.BestProbPath(0, 2, iv, PathOpts{Filter: noThree})
	if !r.OK || math.Abs(r.Prob-0.4) > 1e-12 || r.Arrival != 3 {
		t.Fatalf("filtered path = %+v", r)
	}
	// A 1-hop budget reaches 1 and 3 but never 2.
	r, _ = e.BestProbPath(0, 2, iv, PathOpts{MaxHops: 1})
	if r.OK {
		t.Fatalf("budgeted path should not exist: %+v", r)
	}
	r, _ = e.BestProbPath(0, 1, iv, PathOpts{MaxHops: 1})
	if !r.OK || r.Hops != 1 {
		t.Fatalf("1-hop path = %+v", r)
	}
	// Self query succeeds at the interval start.
	r, _ = e.BestProbPath(2, 2, iv, PathOpts{})
	if !r.OK || r.Prob != 1 || r.Hops != 0 || r.Arrival != iv.Lo {
		t.Fatalf("self path = %+v", r)
	}
}
