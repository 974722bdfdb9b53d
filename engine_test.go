package streach_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"streach"
)

// conformanceSource builds one small dataset shared by the registry tests.
func conformanceSource(t testing.TB) *streach.Dataset {
	t.Helper()
	return streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 45, NumTicks: 400, Seed: 101,
	})
}

// TestBackendRegistry pins the registry surface: every paper evaluator is
// registered, aliases resolve, and unknown or ill-sourced opens fail with
// the typed errors.
func TestBackendRegistry(t *testing.T) {
	want := []string{
		"grail", "grail-mem", "oracle", "reachgrid", "reachgraph",
		"reachgraph-bbfs", "reachgraph-ebfs", "reachgraph-edfs",
		"reachgraph-mem", "spj",
	}
	have := map[string]bool{}
	for _, name := range streach.Backends() {
		have[name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("backend %q not registered (have %v)", name, streach.Backends())
		}
	}
	if len(streach.BackendInfos()) != len(streach.Backends()) {
		t.Error("BackendInfos and Backends disagree on length")
	}

	ds := conformanceSource(t)
	if _, err := streach.Open("no-such-index", ds, streach.Options{}); !errors.Is(err, streach.ErrUnknownBackend) {
		t.Errorf("unknown backend: got %v, want ErrUnknownBackend", err)
	}
	if _, err := streach.Open("reachgrid", ds.Contacts(), streach.Options{}); !errors.Is(err, streach.ErrNeedsTrajectories) {
		t.Errorf("reachgrid from contacts: got %v, want ErrNeedsTrajectories", err)
	}
	e, err := streach.Open("ReachGraph-BMBFS", ds, streach.Options{})
	if err != nil {
		t.Fatalf("alias open: %v", err)
	}
	if e.Name() != "reachgraph" {
		t.Errorf("alias resolved to %q, want reachgraph", e.Name())
	}
}

// TestCrossBackendConformance runs a seeded random workload through every
// registered backend and asserts agreement with the oracle, for both point
// and set queries.
func TestCrossBackendConformance(t *testing.T) {
	ds := conformanceSource(t)
	oracle := ds.Contacts().Oracle()
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      50,
		MinLen:     10,
		MaxLen:     ds.NumTicks() / 2,
		Seed:       77,
	})
	ctx := context.Background()

	var positives int
	for _, q := range work {
		if oracle.Reachable(q) {
			positives++
		}
	}
	if positives == 0 || positives == len(work) {
		t.Fatalf("degenerate workload: %d/%d positive", positives, len(work))
	}

	for _, name := range streach.Backends() {
		e, err := streach.Open(name, ds, streach.Options{})
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		if e.Name() != name {
			t.Errorf("%q: Name() = %q", name, e.Name())
		}
		var charged bool
		for _, q := range work {
			r, err := e.Reachable(ctx, q)
			if err != nil {
				t.Fatalf("%q %v: %v", name, q, err)
			}
			if want := oracle.Reachable(q); r.Reachable != want {
				t.Fatalf("%q disagrees with oracle on %v: got %v, want %v", name, q, r.Reachable, want)
			}
			if !r.Evaluated {
				t.Fatalf("%q %v: result not marked evaluated", name, q)
			}
			if r.IO.Normalized > 0 {
				charged = true
			}
			if r.IO.RandomReads < 0 || r.IO.SequentialReads < 0 {
				t.Fatalf("%q %v: negative I/O delta %+v", name, q, r.IO)
			}
		}
		isDisk := false
		for _, info := range streach.BackendInfos() {
			if info.Name == name {
				isDisk = info.DiskResident
			}
		}
		if isDisk && !charged {
			t.Errorf("%q is disk-resident but charged no I/O over %d queries", name, len(work))
		}
		if !isDisk && charged {
			t.Errorf("%q is memory-resident but charged I/O", name)
		}

		// Set queries: native primitives and point-query fallbacks must
		// both match ground truth, and every backend must return the set
		// already sorted ascending with no duplicates (the Engine
		// contract) — the comparison below is order-sensitive on purpose.
		for src := streach.ObjectID(0); src < 4; src++ {
			iv := streach.NewInterval(streach.Tick(20*src), streach.Tick(20*src)+120)
			want := oracle.ReachableSet(src, iv)
			sr, err := e.ReachableSet(ctx, src, iv)
			if err != nil {
				t.Fatalf("%q set %d %v: %v", name, src, iv, err)
			}
			for i := 1; i < len(sr.Objects); i++ {
				if sr.Objects[i] <= sr.Objects[i-1] {
					t.Fatalf("%q set %d %v not strictly ascending at %d: %v",
						name, src, iv, i, sr.Objects)
				}
			}
			sortIDs(want)
			if !equalIDs(sr.Objects, want) {
				t.Fatalf("%q set %d %v: got %v, want %v", name, src, iv, sr.Objects, want)
			}
			if sr.Expanded != len(sr.Objects) {
				t.Errorf("%q set %d: Expanded=%d, |Objects|=%d", name, src, sr.Expanded, len(sr.Objects))
			}
		}
	}
}

// TestOpenFromContactNetwork exercises the LiveEngine.Snapshot →
// Open("reachgraph", snapshot) round trip: graph-based backends open from a
// pre-extracted network, trajectory-indexing ones refuse.
func TestOpenFromContactNetwork(t *testing.T) {
	ds := conformanceSource(t)
	stream, err := streach.NewLiveEngine("oracle", ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]streach.Point, ds.NumObjects())
	for tk := 0; tk < ds.NumTicks(); tk++ {
		for o := range positions {
			positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
		}
		if err := stream.AddInstant(positions); err != nil {
			t.Fatal(err)
		}
	}
	snap := stream.Snapshot()

	oracle := ds.Contacts().Oracle()
	ctx := context.Background()
	for _, name := range []string{"reachgraph", "grail", "grail-mem", "oracle"} {
		e, err := streach.Open(name, snap, streach.Options{})
		if err != nil {
			t.Fatalf("open %q from snapshot: %v", name, err)
		}
		for _, q := range streach.RandomQueries(streach.WorkloadOptions{
			NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
			Count: 25, MinLen: 10, MaxLen: 200, Seed: 55,
		}) {
			r, err := e.Reachable(ctx, q)
			if err != nil {
				t.Fatalf("%q %v: %v", name, q, err)
			}
			if want := oracle.Reachable(q); r.Reachable != want {
				t.Fatalf("%q on snapshot disagrees with oracle on %v", name, q)
			}
		}
	}
	for _, name := range []string{"reachgrid", "spj"} {
		if _, err := streach.Open(name, snap, streach.Options{}); !errors.Is(err, streach.ErrNeedsTrajectories) {
			t.Errorf("open %q from snapshot: got %v, want ErrNeedsTrajectories", name, err)
		}
	}
}

// TestEvaluateBatch checks that the batch evaluator matches sequential
// evaluation and reports per-query I/O deltas.
func TestEvaluateBatch(t *testing.T) {
	ds := conformanceSource(t)
	e, err := streach.Open("reachgrid", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
		Count: 40, MinLen: 10, MaxLen: 200, Seed: 91,
	})
	oracle := ds.Contacts().Oracle()

	results, err := streach.EvaluateBatch(context.Background(), e, work, streach.BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(work) {
		t.Fatalf("got %d results for %d queries", len(results), len(work))
	}
	var io float64
	for i, r := range results {
		if !r.Evaluated {
			t.Fatalf("query %d not evaluated", i)
		}
		if r.Query != work[i] {
			t.Fatalf("result %d echoes %v, want %v", i, r.Query, work[i])
		}
		if r.Reachable != oracle.Reachable(work[i]) {
			t.Fatalf("batch disagrees with oracle on %v", work[i])
		}
		io += r.IO.Normalized
	}
	if io == 0 {
		t.Error("batch over a disk-resident engine charged no I/O")
	}
}

// blockingEngine is a stub Engine whose queries block until the context is
// cancelled, for exercising batch cancellation without timing flakiness.
type blockingEngine struct {
	started chan struct{}
}

func (b *blockingEngine) Name() string               { return "blocking" }
func (b *blockingEngine) IndexBytes() int64          { return 0 }
func (b *blockingEngine) IOTotals() streach.IOStats  { return streach.IOStats{} }
func (b *blockingEngine) Stats() streach.EngineStats { return streach.EngineStats{Backend: "blocking"} }
func (b *blockingEngine) Reachable(ctx context.Context, q streach.Query) (streach.Result, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return streach.Result{}, ctx.Err()
}
func (b *blockingEngine) ReachableSet(ctx context.Context, src streach.ObjectID, iv streach.Interval) (streach.SetResult, error) {
	return streach.SetResult{}, ctx.Err()
}
func (b *blockingEngine) EarliestArrival(ctx context.Context, src, dst streach.ObjectID, iv streach.Interval) (streach.ArrivalResult, error) {
	return streach.ArrivalResult{}, ctx.Err()
}
func (b *blockingEngine) TopKReachable(ctx context.Context, src streach.ObjectID, iv streach.Interval, k int, decay float64) (streach.TopKResult, error) {
	return streach.TopKResult{}, ctx.Err()
}

// TestEvaluateBatchCancellation cancels a batch mid-flight and expects a
// prompt return with the context error and unevaluated remainders.
func TestEvaluateBatchCancellation(t *testing.T) {
	qs := make([]streach.Query, 16)
	for i := range qs {
		qs[i] = streach.Query{Src: 0, Dst: 1, Interval: streach.NewInterval(0, 10)}
	}
	be := &blockingEngine{started: make(chan struct{}, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-be.started // at least one query is in flight
		cancel()
	}()
	done := make(chan struct{})
	var results []streach.Result
	var err error
	go func() {
		results, err = streach.EvaluateBatch(ctx, be, qs, streach.BatchOptions{Workers: 3})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("EvaluateBatch did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got error %v, want context.Canceled", err)
	}
	if len(results) != len(qs) {
		t.Fatalf("got %d results, want %d", len(results), len(qs))
	}
	for i, r := range results {
		if r.Evaluated {
			t.Errorf("query %d marked evaluated after cancellation", i)
		}
	}

	// A pre-cancelled context evaluates nothing.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	results, err = streach.EvaluateBatch(pre, be, qs, streach.BatchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: got %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r.Evaluated {
			t.Errorf("pre-cancelled: query %d evaluated", i)
		}
	}
}

// failingEngine fails every query, for the ContinueOnError path.
type failingEngine struct{ calls int }

func (f *failingEngine) Name() string               { return "failing" }
func (f *failingEngine) IndexBytes() int64          { return 0 }
func (f *failingEngine) IOTotals() streach.IOStats  { return streach.IOStats{} }
func (f *failingEngine) Stats() streach.EngineStats { return streach.EngineStats{Backend: "failing"} }
func (f *failingEngine) Reachable(ctx context.Context, q streach.Query) (streach.Result, error) {
	f.calls++
	if q.Src == 2 {
		return streach.Result{}, errors.New("boom")
	}
	return streach.Result{Query: q, Evaluated: true}, nil
}
func (f *failingEngine) ReachableSet(ctx context.Context, src streach.ObjectID, iv streach.Interval) (streach.SetResult, error) {
	return streach.SetResult{}, errors.New("boom")
}
func (f *failingEngine) EarliestArrival(ctx context.Context, src, dst streach.ObjectID, iv streach.Interval) (streach.ArrivalResult, error) {
	return streach.ArrivalResult{}, errors.New("boom")
}
func (f *failingEngine) TopKReachable(ctx context.Context, src streach.ObjectID, iv streach.Interval, k int, decay float64) (streach.TopKResult, error) {
	return streach.TopKResult{}, errors.New("boom")
}

// TestEvaluateBatchContinueOnError keeps going past failures and still
// reports the first error.
func TestEvaluateBatchContinueOnError(t *testing.T) {
	qs := make([]streach.Query, 8)
	for i := range qs {
		qs[i] = streach.Query{Src: streach.ObjectID(i % 4), Dst: 7, Interval: streach.NewInterval(0, 10)}
	}
	fe := &failingEngine{}
	results, err := streach.EvaluateBatch(context.Background(), fe, qs, streach.BatchOptions{
		Workers: 1, ContinueOnError: true,
	})
	if err == nil {
		t.Fatal("want first error, got nil")
	}
	if fe.calls != len(qs) {
		t.Fatalf("evaluated %d queries, want all %d", fe.calls, len(qs))
	}
	var evaluated int
	for _, r := range results {
		if r.Evaluated {
			evaluated++
		}
	}
	if evaluated != 6 { // 2 of 8 queries have Src == 2
		t.Fatalf("evaluated %d, want 6", evaluated)
	}
}

// TestResultIODeltas pins the per-query delta semantics: deltas sum to the
// engine's cumulative traffic and repeated identical queries report their
// own (cache-dependent) costs.
func TestResultIODeltas(t *testing.T) {
	ds := conformanceSource(t)
	e, err := streach.Open("reachgraph", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := streach.Query{Src: 1, Dst: 9, Interval: streach.NewInterval(20, 220)}
	first, err := e.Reachable(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.IO.RandomReads+first.IO.SequentialReads == 0 {
		t.Error("first disk query reported a zero I/O delta")
	}
	second, err := e.Reachable(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// The second run hits the buffer pool; its delta must not exceed the
	// cold run's.
	if second.IO.Normalized > first.IO.Normalized {
		t.Errorf("warm query charged %.1f IOs > cold %.1f", second.IO.Normalized, first.IO.Normalized)
	}
	if second.Latency < 0 || first.Latency <= 0 {
		t.Errorf("implausible latencies: first %v, second %v", first.Latency, second.Latency)
	}
}
