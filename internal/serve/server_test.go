package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"streach"
)

// testDataset is the small frozen workload shared by the HTTP tests.
func testDataset() *streach.Dataset {
	return streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 30, NumTicks: 120, Seed: 11})
}

func newFrozenServer(t *testing.T, cfg Config) (*Server, streach.Engine, *httptest.Server) {
	t.Helper()
	eng, err := streach.Open("oracle", testDataset(), streach.Options{})
	if err != nil {
		t.Fatalf("open oracle: %v", err)
	}
	s := New(eng, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, eng, ts
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeErr(t *testing.T, resp *http.Response) APIError {
	t.Helper()
	defer resp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error response is not the envelope: %v", err)
	}
	return env.Error
}

// TestStructuredErrors drives every client-visible failure path and checks
// each answers the one JSON envelope shape with the right code and status.
func TestStructuredErrors(t *testing.T) {
	_, _, ts := newFrozenServer(t, Config{})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"wrong method", http.MethodGet, "/v1/reachable", "", 405, CodeMethodNotAllowed},
		{"stats wrong method", http.MethodPost, "/v1/stats", "{}", 405, CodeMethodNotAllowed},
		{"unknown route", http.MethodPost, "/v1/nope", "{}", 404, CodeNotFound},
		{"malformed json", http.MethodPost, "/v1/reachable", "{", 400, CodeBadRequest},
		{"unknown field", http.MethodPost, "/v1/reachable", `{"src":1,"dst":2,"from":0,"to":9,"bogus":1}`, 400, CodeBadRequest},
		{"src out of range", http.MethodPost, "/v1/reachable", `{"src":999,"dst":2,"from":0,"to":9}`, 400, CodeBadRequest},
		{"negative src", http.MethodPost, "/v1/reachable", `{"src":-1,"dst":2,"from":0,"to":9}`, 400, CodeBadRequest},
		{"inverted interval", http.MethodPost, "/v1/reachable", `{"src":1,"dst":2,"from":9,"to":0}`, 400, CodeBadRequest},
		{"negative max_hops", http.MethodPost, "/v1/reachable", `{"src":1,"dst":2,"from":0,"to":9,"max_hops":-2}`, 400, CodeBadRequest},
		{"set bad src", http.MethodPost, "/v1/reachable-set", `{"src":999,"from":0,"to":9}`, 400, CodeBadRequest},
		{"arrival bad interval", http.MethodPost, "/v1/reachable", `{"src":1,"dst":2,"from":-5,"to":9,"track_arrival":true}`, 400, CodeBadRequest},
		{"earliest-arrival route gone", http.MethodPost, "/v1/earliest-arrival", `{"src":1,"dst":2,"from":0,"to":9}`, 404, CodeNotFound},
		{"topk zero k", http.MethodPost, "/v1/topk", `{"src":1,"from":0,"to":9,"k":0,"decay":0.5}`, 400, CodeBadRequest},
		{"topk bad decay", http.MethodPost, "/v1/topk", `{"src":1,"from":0,"to":9,"k":3,"decay":1.5}`, 400, CodeBadRequest},
		{"ingest on frozen", http.MethodPost, "/v1/ingest", `{"instants":[[[0,0]]]}`, 501, CodeNotLive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			apiErr := decodeErr(t, resp)
			if apiErr.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", apiErr.Code, tc.wantCode)
			}
			if apiErr.Message == "" {
				t.Error("error message is empty")
			}
		})
	}
}

// TestQuotaRejection exhausts a client's token bucket and checks the 429
// carries both the JSON retry hint and the Retry-After header.
func TestQuotaRejection(t *testing.T) {
	_, _, ts := newFrozenServer(t, Config{ClientQPS: 0.001, ClientBurst: 1})
	body := `{"src":1,"dst":2,"from":0,"to":9}`

	req := func() *http.Response {
		r, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/reachable", strings.NewReader(body))
		r.Header.Set("X-Client-ID", "greedy")
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := req()
	first.Body.Close()
	if first.StatusCode != 200 {
		t.Fatalf("first request status = %d", first.StatusCode)
	}
	second := req()
	if second.StatusCode != 429 {
		t.Fatalf("second request status = %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("429 is missing the Retry-After header")
	}
	apiErr := decodeErr(t, second)
	if apiErr.Code != CodeQuota || apiErr.RetryAfterMS <= 0 {
		t.Errorf("quota error = %+v", apiErr)
	}
}

// TestReachableMatchesEngineAndCaches compares HTTP answers against direct
// engine evaluation and checks the repeat-query cache path.
func TestReachableMatchesEngineAndCaches(t *testing.T) {
	_, eng, ts := newFrozenServer(t, Config{})
	ctx := context.Background()

	for src := 0; src < 6; src++ {
		dst := (src + 7) % 30
		want, err := eng.Reachable(ctx, streach.Query{
			Src: streach.ObjectID(src), Dst: streach.ObjectID(dst),
			Interval: streach.NewInterval(0, 100),
		})
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"src":%d,"dst":%d,"from":0,"to":100}`, src, dst)

		var got reachableResponse
		resp := post(t, ts.URL+"/v1/reachable", body)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if got.Reachable != want.Reachable {
			t.Errorf("%d⤳%d: HTTP says %v, engine says %v", src, dst, got.Reachable, want.Reachable)
		}
		if got.Cached {
			t.Errorf("%d⤳%d: first evaluation claims a cache hit", src, dst)
		}

		var again reachableResponse
		resp = post(t, ts.URL+"/v1/reachable", body)
		json.NewDecoder(resp.Body).Decode(&again)
		resp.Body.Close()
		if !again.Cached {
			t.Errorf("%d⤳%d: repeat query missed the cache", src, dst)
		}
		if again.Reachable != got.Reachable {
			t.Errorf("%d⤳%d: cached answer differs", src, dst)
		}
	}
}

// TestReachableSetNDJSON parses the streamed response — header line,
// chunked object lines, trailer — and checks the union matches the
// engine's set.
func TestReachableSetNDJSON(t *testing.T) {
	_, eng, ts := newFrozenServer(t, Config{SetChunk: 4})

	want, err := eng.ReachableSet(context.Background(), 3, streach.NewInterval(0, 119))
	if err != nil {
		t.Fatal(err)
	}

	resp := post(t, ts.URL+"/v1/reachable-set", `{"src":3,"from":0,"to":119}`)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr setHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Src != 3 || hdr.Cached {
		t.Errorf("header = %+v", hdr)
	}

	var objects []int
	var trailer setTrailer
	chunkLines := 0
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("trailer line: %v", err)
			}
			break
		}
		var chunk setChunk
		if err := json.Unmarshal(line, &chunk); err != nil {
			t.Fatalf("chunk line: %v", err)
		}
		if len(chunk.Objects) > 4 {
			t.Errorf("chunk carries %d objects, configured max is 4", len(chunk.Objects))
		}
		objects = append(objects, chunk.Objects...)
		chunkLines++
	}
	if !trailer.Done {
		t.Fatal("stream ended without a done trailer")
	}
	if trailer.Count != len(want.Objects) || len(objects) != len(want.Objects) {
		t.Fatalf("streamed %d objects (trailer says %d), engine says %d",
			len(objects), trailer.Count, len(want.Objects))
	}
	for i, o := range want.Objects {
		if objects[i] != int(o) {
			t.Fatalf("object[%d] = %d, want %d", i, objects[i], o)
		}
	}
	if len(want.Objects) > 4 && chunkLines < 2 {
		t.Errorf("set of %d objects streamed in %d chunk lines, want > 1", len(want.Objects), chunkLines)
	}
}

// TestLiveNoStaleReads is the staleness regression: cache a negative
// answer, ingest a contact that flips it, and check the re-query sees the
// new truth — while a non-overlapping cached entry survives untouched. The
// reachable set and the top-k ranking of the same interval, cached before
// the ingest grows them, are answered fresh after it too.
func TestLiveNoStaleReads(t *testing.T) {
	env := streach.Rect{Min: streach.Point{X: 0, Y: 0}, Max: streach.Point{X: 1000, Y: 1000}}
	le, err := streach.NewLiveEngine("oracle", 2, env, 10, streach.Options{SegmentTicks: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := New(le, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Five instants with the two objects far apart: no contact.
	far := `[[0,0],[900,900]]`
	instants := strings.Repeat(far+",", 4) + far
	resp := post(t, ts.URL+"/v1/ingest", `{"instants":[`+instants+`]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("ingest status %d: %+v", resp.StatusCode, decodeErr(t, resp))
	}
	var ing ingestResponse
	json.NewDecoder(resp.Body).Decode(&ing)
	resp.Body.Close()
	if ing.Ticks != 5 || ing.SealedSegments != 1 {
		t.Fatalf("after preload: %+v, want 5 ticks / 1 sealed segment", ing)
	}

	query := func(body string) reachableResponse {
		resp := post(t, ts.URL+"/v1/reachable", body)
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		var r reachableResponse
		json.NewDecoder(resp.Body).Decode(&r)
		return r
	}

	q := `{"src":0,"dst":1,"from":0,"to":9}`
	if r := query(q); r.Reachable {
		t.Fatal("objects 900m apart with dT=10 report a contact")
	}
	if r := query(q); !r.Cached || r.Reachable {
		t.Fatalf("repeat query: %+v, want cached negative", r)
	}
	// A future-window entry that the upcoming ingest must NOT touch.
	future := `{"src":0,"dst":1,"from":20,"to":30}`
	query(future)

	set := func() (setHeader, []int) {
		resp := post(t, ts.URL+"/v1/reachable-set", `{"src":0,"from":0,"to":9}`)
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("set query status %d", resp.StatusCode)
		}
		dec := json.NewDecoder(resp.Body)
		var hdr setHeader
		var objects []int
		if err := dec.Decode(&hdr); err != nil {
			t.Fatal(err)
		}
		for {
			var line struct {
				Objects []int `json:"objects"`
				Done    bool  `json:"done"`
			}
			if err := dec.Decode(&line); err != nil {
				t.Fatal(err)
			}
			if line.Done {
				return hdr, objects
			}
			objects = append(objects, line.Objects...)
		}
	}
	topk := func() topKResponse {
		resp := post(t, ts.URL+"/v1/topk", `{"src":0,"from":0,"to":9,"k":3,"decay":0.5}`)
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("topk query status %d", resp.StatusCode)
		}
		var r topKResponse
		json.NewDecoder(resp.Body).Decode(&r)
		return r
	}
	set()
	if hdr, objs := set(); !hdr.Cached || !slices.Equal(objs, []int{0}) {
		t.Fatalf("repeat set query: cached %v, objects %v; want cached [0]", hdr.Cached, objs)
	}
	topk()
	if r := topk(); !r.Cached || len(r.Items) != 0 {
		t.Fatalf("repeat topk query: %+v, want cached and empty", r)
	}

	// Tick 5: the objects meet. The ingest hook must drop the cached
	// [0,9] answer.
	resp = post(t, ts.URL+"/v1/ingest", `{"instants":[[[500,500],[502,500]]]}`)
	resp.Body.Close()

	r := query(q)
	if r.Cached {
		t.Fatal("stale read: cached answer served across an answer-flipping ingest")
	}
	if !r.Reachable {
		t.Fatal("re-query after the contact still answers unreachable")
	}
	if rf := query(future); !rf.Cached {
		t.Error("non-overlapping cached entry [20,30] was dropped by an ingest at tick 5")
	}
	if hdr, objs := set(); hdr.Cached || !slices.Equal(objs, []int{0, 1}) {
		t.Fatalf("set after the contact: cached %v, objects %v; want fresh [0 1]", hdr.Cached, objs)
	}
	if r := topk(); r.Cached || len(r.Items) != 1 || r.Items[0].Object != 1 || r.Items[0].Arrival != 5 {
		t.Fatalf("topk after the contact: %+v, want fresh [object 1 arriving at 5]", r)
	}
}

// stubEngine is a controllable Engine for lifecycle tests: Reachable
// blocks until release is closed (observing ctx).
type stubEngine struct {
	entered chan struct{}
	release chan struct{}
}

func (e *stubEngine) Name() string { return "stub" }
func (e *stubEngine) Reachable(ctx context.Context, q streach.Query) (streach.Result, error) {
	if e.entered != nil {
		select {
		case e.entered <- struct{}{}:
		default:
		}
	}
	if e.release != nil {
		select {
		case <-e.release:
		case <-ctx.Done():
			return streach.Result{}, ctx.Err()
		}
	}
	return streach.Result{Query: q, Reachable: true, Arrival: -1, Hops: -1}, nil
}
func (e *stubEngine) ReachableSet(context.Context, streach.ObjectID, streach.Interval) (streach.SetResult, error) {
	return streach.SetResult{}, nil
}
func (e *stubEngine) TopKReachable(context.Context, streach.ObjectID, streach.Interval, int, float64) (streach.TopKResult, error) {
	return streach.TopKResult{}, nil
}
func (e *stubEngine) Stats() streach.EngineStats {
	return streach.EngineStats{Backend: "stub", NumObjects: 8, NumTicks: 100}
}

// TestOverloadShedding saturates a 1-slot, 1-queue server with blocking
// queries and checks the third request is shed with 503 + Retry-After.
func TestOverloadShedding(t *testing.T) {
	stub := &stubEngine{entered: make(chan struct{}, 2), release: make(chan struct{})}
	s := New(stub, Config{MaxInFlight: 1, MaxQueue: 1, CacheEntries: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := `{"src":1,"dst":2,"from":0,"to":9}`

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/reachable", "application/json", strings.NewReader(body))
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	// One request inside the engine, one in the admission queue.
	<-stub.entered
	waitFor(t, func() bool { return s.adm.waiting.Load() == 1 })

	resp := post(t, ts.URL+"/v1/reachable", body)
	if resp.StatusCode != 503 {
		t.Fatalf("third request status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 overload is missing the Retry-After header")
	}
	if apiErr := decodeErr(t, resp); apiErr.Code != CodeOverloaded {
		t.Errorf("code = %q, want %q", apiErr.Code, CodeOverloaded)
	}

	close(stub.release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != 200 {
			t.Errorf("held request finished with status %d", code)
		}
	}
}

// TestGracefulShutdown runs the Serve lifecycle: cancel the context while
// a query is in flight, check new work is rejected as shutting_down, the
// in-flight query completes, and Serve returns within the grace period.
func TestGracefulShutdown(t *testing.T) {
	stub := &stubEngine{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := New(stub, Config{CacheEntries: -1})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, 5*time.Second) }()

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/reachable",
			"application/json", strings.NewReader(`{"src":1,"dst":2,"from":0,"to":9}`))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-stub.entered

	cancel()
	waitFor(t, func() bool { return s.isDraining() })

	// New work is rejected with the shutdown envelope.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/reachable", strings.NewReader(`{"src":1,"dst":2,"from":0,"to":9}`))
	s.ServeHTTP(rec, req)
	if rec.Code != 503 {
		t.Fatalf("request during drain: status %d, want 503", rec.Code)
	}
	var env ErrorEnvelope
	json.Unmarshal(rec.Body.Bytes(), &env)
	if env.Error.Code != CodeShuttingDown {
		t.Errorf("drain rejection code = %q, want %q", env.Error.Code, CodeShuttingDown)
	}

	// The in-flight query still completes, then Serve exits cleanly.
	close(stub.release)
	if code := <-inflight; code != 200 {
		t.Errorf("in-flight request finished with status %d, want 200", code)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v, want nil after a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not exit after the drain")
	}
}

// TestEngineErrorMapping pins writeEngineError's status mapping for
// cancellation, timeout and plain failure.
func TestEngineErrorMapping(t *testing.T) {
	cases := []struct {
		err        error
		wantStatus int
		wantCode   string
	}{
		{context.Canceled, StatusClientClosedRequest, CodeCanceled},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, CodeCanceled},
		{fmt.Errorf("disk on fire"), http.StatusInternalServerError, CodeInternal},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeEngineError(rec, tc.err)
		if rec.Code != tc.wantStatus {
			t.Errorf("%v: status %d, want %d", tc.err, rec.Code, tc.wantStatus)
		}
		var env ErrorEnvelope
		json.Unmarshal(rec.Body.Bytes(), &env)
		if env.Error.Code != tc.wantCode {
			t.Errorf("%v: code %q, want %q", tc.err, env.Error.Code, tc.wantCode)
		}
	}
}

// TestMetricsEndpoint scrapes /metrics after traffic and spot-checks the
// exposition.
func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := newFrozenServer(t, Config{})
	post(t, ts.URL+"/v1/reachable", `{"src":1,"dst":2,"from":0,"to":9}`).Body.Close()
	post(t, ts.URL+"/v1/reachable", `{"src":1,"dst":2,"from":0,"to":9}`).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		`streachd_requests_total{endpoint="reachable",code="200"} 2`,
		`streachd_cache_events_total{event="hit"} 1`,
		`streachd_cache_events_total{event="miss"} 1`,
		"streachd_request_duration_seconds_bucket",
		"streachd_engine_ticks 120",
		// One fresh evaluation and one cache hit: the expanded-contacts
		// histogram must count exactly the fresh one.
		`streachd_expanded_contacts_bucket{endpoint="reachable",le="+Inf"} 1`,
		`streachd_expanded_contacts_count{endpoint="reachable"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}

	// The same histogram surfaces in /v1/stats.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	ex, ok := st.ExpandedContacts["reachable"]
	if !ok {
		t.Fatalf("stats carry no expanded_contacts for reachable: %+v", st.ExpandedContacts)
	}
	if ex.Count != 1 || len(ex.Buckets) != len(expandedBounds) {
		t.Errorf("expanded_contacts[reachable] = %+v, want count 1 with %d buckets", ex, len(expandedBounds))
	}
}

// TestStatsEndpoint checks the /v1/stats JSON carries the fields load
// generators depend on.
func TestStatsEndpoint(t *testing.T) {
	_, _, ts := newFrozenServer(t, Config{Dataset: "RWP30"})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Backend != "oracle" || st.Dataset != "RWP30" || st.Live {
		t.Errorf("stats header = %+v", st)
	}
	if st.Engine.NumObjects != 30 || st.Engine.NumTicks != 120 {
		t.Errorf("engine dims = %d×%d", st.Engine.NumObjects, st.Engine.NumTicks)
	}
	if st.Admission.MaxInFlight <= 0 || st.Cache.Capacity != 4096 {
		t.Errorf("defaults not applied: %+v", st)
	}
}

// newLiveEventServer spins up a live engine with a contact between objects
// 2 and 3 at ticks 45 and 49 (so NumTicks is 50 and six 8-tick slabs are
// sealed) behind a serving stack, for the event-ingest wire tests.
func newLiveEventServer(t *testing.T) (*streach.LiveEngine, *httptest.Server) {
	t.Helper()
	env := streach.Rect{Min: streach.Point{X: 0, Y: 0}, Max: streach.Point{X: 1000, Y: 1000}}
	le, err := streach.NewLiveEngine("oracle", 4, env, 10,
		streach.Options{SegmentTicks: 8, IngestHorizon: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := le.Ingest([]streach.ContactEvent{
		{Tick: 45, A: 2, B: 3},
		{Tick: 49, A: 2, B: 3},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(le, Config{}))
	t.Cleanup(ts.Close)
	return le, ts
}

// TestIngestEventErrors drives the failure paths of the event form of
// /v1/ingest: structural problems and horizon overruns are 400s, blind
// retractions are 409s, and in every case nothing is ingested.
func TestIngestEventErrors(t *testing.T) {
	le, ts := newLiveEventServer(t)

	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"both forms", `{"instants":[[[0,0],[1,1],[2,2],[3,3]]],"events":[{"tick":0,"a":0,"b":1}]}`, 400, CodeBadRequest},
		{"neither form", `{}`, 400, CodeBadRequest},
		{"object out of range", `{"events":[{"tick":0,"a":0,"b":9}]}`, 400, CodeBadRequest},
		{"negative object", `{"events":[{"tick":0,"a":-1,"b":1}]}`, 400, CodeBadRequest},
		{"self contact", `{"events":[{"tick":0,"a":2,"b":2}]}`, 400, CodeBadRequest},
		{"negative tick", `{"events":[{"tick":-1,"a":0,"b":1}]}`, 400, CodeBadRequest},
		{"beyond horizon", `{"events":[{"tick":10000,"a":0,"b":1}]}`, 400, CodeBeyondHorizon},
		{"good then beyond horizon rejects whole batch",
			`{"events":[{"tick":0,"a":0,"b":1},{"tick":10000,"a":0,"b":1}]}`, 400, CodeBeyondHorizon},
		{"retract of nonexistent", `{"events":[{"tick":45,"a":0,"b":1,"retract":true}]}`, 409, CodeRetractMiss},
		{"good then blind retract rejects whole batch",
			`{"events":[{"tick":0,"a":0,"b":1},{"tick":3,"a":0,"b":1,"retract":true}]}`, 409, CodeRetractMiss},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+"/v1/ingest", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			apiErr := decodeErr(t, resp)
			if apiErr.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", apiErr.Code, tc.wantCode)
			}
			if apiErr.Message == "" {
				t.Error("error message is empty")
			}
		})
	}
	st := le.Stats()
	if st.NumTicks != 50 || st.DeltaEvents != 0 || st.LateEvents != 0 {
		t.Fatalf("rejected batches touched the engine: %+v", st)
	}
	if le.ContactActiveAt(0, 1, 0) {
		t.Fatal("rejected batch partially applied")
	}
}

// TestWireTicksBeyondInt32: a wire tick past math.MaxInt32 is a 400 naming
// its field, not a tick wrapped into the engine's int32 domain — neither
// an event at 2^32+3 ingested late at tick 3 nor an interval
// [2^32, 2^32+5] evaluated as [0, 5].
func TestWireTicksBeyondInt32(t *testing.T) {
	le, ts := newLiveEventServer(t)
	for _, tc := range []struct{ path, body, named string }{
		{"/v1/ingest", `{"events":[{"tick":4294967299,"a":0,"b":1}]}`, "event 0: tick 4294967299 "},
		{"/v1/reachable", `{"src":0,"dst":1,"from":4294967296,"to":4294967301}`, "from 4294967296 "},
		{"/v1/reachable", `{"src":0,"dst":1,"from":0,"to":4294967301}`, "to 4294967301 "},
		{"/v1/reachable-set", `{"src":0,"from":0,"to":2147483648}`, "to 2147483648 "},
	} {
		resp := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status = %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
		apiErr := decodeErr(t, resp)
		if apiErr.Code != CodeBadRequest || !strings.HasPrefix(apiErr.Message, tc.named) {
			t.Errorf("%s %s: error %+v, want %s starting %q", tc.path, tc.body, apiErr, CodeBadRequest, tc.named)
		}
	}
	if st := le.Stats(); st.NumTicks != 50 || st.LateEvents != 0 || le.ContactActiveAt(0, 1, 3) {
		t.Fatalf("a rejected tick reached the engine: %+v", st)
	}
}

// TestLiveEventStaleness is the out-of-order staleness regression: a late
// add and its retraction at tick 15 must each invalidate exactly the
// cached entries whose intervals cover tick 15 — flipping the covered
// answer both ways — while every non-overlapping entry keeps serving from
// cache, and the delta-log depth is visible in /v1/stats until Compact
// folds it away.
func TestLiveEventStaleness(t *testing.T) {
	le, ts := newLiveEventServer(t)

	query := func(body string) reachableResponse {
		resp := post(t, ts.URL+"/v1/reachable", body)
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("query %s: status %d", body, resp.StatusCode)
		}
		var r reachableResponse
		json.NewDecoder(resp.Body).Decode(&r)
		return r
	}
	warm := func(body string, wantReachable bool) {
		t.Helper()
		if r := query(body); r.Reachable != wantReachable {
			t.Fatalf("warm %s: reachable = %v, want %v", body, r.Reachable, wantReachable)
		}
		if r := query(body); !r.Cached {
			t.Fatalf("warm %s: repeat query missed the cache", body)
		}
	}
	ingest := func(body string) *ingestReportJSON {
		t.Helper()
		resp := post(t, ts.URL+"/v1/ingest", body)
		if resp.StatusCode != 200 {
			t.Fatalf("ingest status %d: %+v", resp.StatusCode, decodeErr(t, resp))
		}
		var ing ingestResponse
		json.NewDecoder(resp.Body).Decode(&ing)
		resp.Body.Close()
		if ing.Report == nil {
			t.Fatalf("event ingest returned no report")
		}
		return ing.Report
	}
	stats := func() statsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	covered := `{"src":0,"dst":1,"from":10,"to":20}`  // covers tick 15
	disjoint := `{"src":0,"dst":1,"from":30,"to":40}` // does not
	other := `{"src":2,"dst":3,"from":40,"to":49}`    // different pair, preloaded contact
	warm(covered, false)
	warm(disjoint, false)
	warm(other, true)

	// Late add into sealed slab [8, 15].
	if rep := ingest(`{"events":[{"tick":15,"a":0,"b":1}]}`); rep.Late != 1 || rep.Applied != 0 {
		t.Fatalf("late add report = %+v", rep)
	}
	if r := query(covered); r.Cached || !r.Reachable {
		t.Fatalf("after late add: %+v, want fresh reachable answer", r)
	}
	if r := query(disjoint); !r.Cached {
		t.Error("disjoint entry [30,40] dropped by an ingest at tick 15")
	}
	if r := query(other); !r.Cached {
		t.Error("other-pair entry [40,49] dropped by an ingest at tick 15")
	}

	// Retract it again: same invalidation footprint, answer flips back.
	if rep := ingest(`{"events":[{"tick":15,"a":0,"b":1,"retract":true}]}`); rep.Retracted != 1 {
		t.Fatalf("retraction report = %+v", rep)
	}
	if r := query(covered); r.Cached || r.Reachable {
		t.Fatalf("after retraction: %+v, want fresh unreachable answer", r)
	}
	if r := query(disjoint); !r.Cached {
		t.Error("disjoint entry dropped by the retraction")
	}

	st := stats()
	if st.Engine.DeltaEvents != 2 || st.Engine.DirtySegments != 1 {
		t.Errorf("delta log in stats = %d events / %d dirty, want 2 / 1",
			st.Engine.DeltaEvents, st.Engine.DirtySegments)
	}
	if st.Engine.LateEvents != 1 || st.Engine.Retractions != 1 {
		t.Errorf("counters = %d late / %d retractions, want 1 / 1",
			st.Engine.LateEvents, st.Engine.Retractions)
	}
	// Exactly the covered entry was invalidated — twice — and no put was
	// discarded as stale.
	if st.Cache.Invalidated != 2 || st.Cache.StalePuts != 0 {
		t.Errorf("cache counters = %d invalidated / %d stale puts, want 2 / 0",
			st.Cache.Invalidated, st.Cache.StalePuts)
	}

	// Compaction folds the deltas into re-sealed slabs without touching
	// answers or surviving cache entries.
	if n, err := le.Compact(); err != nil || n != 1 {
		t.Fatalf("Compact() = %d, %v, want 1 dirty slab rebuilt", n, err)
	}
	st = stats()
	if st.Engine.DeltaEvents != 0 || st.Engine.DirtySegments != 0 || st.Engine.Compactions != 1 {
		t.Errorf("post-compact stats = %+v", st.Engine)
	}
	if r := query(disjoint); !r.Cached {
		t.Error("compaction dropped a cached entry")
	}
	if r := query(covered); r.Reachable {
		t.Error("compaction changed an answer")
	}
}
