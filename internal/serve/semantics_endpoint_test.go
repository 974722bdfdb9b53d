package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"streach"
)

func postReachable(t *testing.T, url, body string) (int, reachableResponse) {
	t.Helper()
	resp := post(t, url+"/v1/reachable", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, reachableResponse{}
	}
	var out reachableResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode reachable response: %v", err)
	}
	return resp.StatusCode, out
}

// TestReachableFilteredAndProbabilistic drives the §7 extension fields
// through the wire surface: filtered queries answer, probabilistic queries
// report a prob consistent with p^hops, parameterizations get distinct
// cache slots, and inconsistent parameters are the client's fault (400).
func TestReachableFilteredAndProbabilistic(t *testing.T) {
	_, eng, ts := newFrozenServer(t, Config{})

	// Find a reachable pair to exercise the positive paths.
	var src, dst, from, to int
	found := false
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: 30, NumTicks: 120, Count: 40, MinLen: 40, MaxLen: 100, Seed: 5,
	})
	for _, q := range work {
		r, err := eng.Reachable(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Reachable && q.Src != q.Dst {
			src, dst = int(q.Src), int(q.Dst)
			from, to = int(q.Interval.Lo), int(q.Interval.Hi)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no reachable pair in the probe workload")
	}

	// Plain, filtered and probabilistic versions of the same point query
	// must occupy distinct cache slots.
	plainBody := fmt.Sprintf(`{"src":%d,"dst":%d,"from":%d,"to":%d}`, src, dst, from, to)
	code, plain := postReachable(t, ts.URL, plainBody)
	if code != 200 || !plain.Reachable {
		t.Fatalf("plain query: status %d, reachable %v", code, plain.Reachable)
	}
	if plain.Prob != 0 {
		t.Fatalf("plain query reported prob %v", plain.Prob)
	}

	code, filt := postReachable(t, ts.URL,
		fmt.Sprintf(`{"src":%d,"dst":%d,"from":%d,"to":%d,"min_duration":1}`, src, dst, from, to))
	if code != 200 {
		t.Fatalf("filtered query: status %d", code)
	}
	_ = filt

	code, prob := postReachable(t, ts.URL,
		fmt.Sprintf(`{"src":%d,"dst":%d,"from":%d,"to":%d,"prob":0.7,"prob_threshold":0.1}`, src, dst, from, to))
	if code != 200 {
		t.Fatalf("probabilistic query: status %d", code)
	}
	if prob.Reachable {
		want := 1.0
		for i := 0; i < prob.Hops; i++ {
			want *= 0.7
		}
		if diff := prob.Prob - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("prob %v inconsistent with 0.7^%d = %v", prob.Prob, prob.Hops, want)
		}
	}

	// A repeat of the plain query must hit the plain slot, not a filtered
	// or probabilistic one.
	code, again := postReachable(t, ts.URL, plainBody)
	if code != 200 || !again.Cached {
		t.Fatalf("plain repeat: status %d, cached %v", code, again.Cached)
	}
	if again.Prob != plain.Prob || again.Hops != plain.Hops {
		t.Fatal("plain repeat served an extension query's cached answer")
	}

	// Monte-Carlo selection: never native, prob in [0, 1], seed-stable.
	mcBody := fmt.Sprintf(`{"src":%d,"dst":%d,"from":%d,"to":%d,"prob":0.5,"mc_trials":200,"mc_seed":7,"no_cache":true}`,
		src, dst, from, to)
	code, mc1 := postReachable(t, ts.URL, mcBody)
	if code != 200 {
		t.Fatalf("monte-carlo query: status %d", code)
	}
	if mc1.Native {
		t.Fatal("monte-carlo answer claimed native evaluation")
	}
	if mc1.Prob < 0 || mc1.Prob > 1 {
		t.Fatalf("monte-carlo estimate %v outside [0, 1]", mc1.Prob)
	}
	_, mc2 := postReachable(t, ts.URL, mcBody)
	if mc1.Prob != mc2.Prob {
		t.Fatalf("seeded monte-carlo not reproducible: %v vs %v", mc1.Prob, mc2.Prob)
	}

	// Inconsistent parameters are client errors, not server failures.
	for _, bad := range []string{
		fmt.Sprintf(`{"src":%d,"dst":%d,"from":%d,"to":%d,"prob":1.5}`, src, dst, from, to),
		fmt.Sprintf(`{"src":%d,"dst":%d,"from":%d,"to":%d,"prob_threshold":0.5}`, src, dst, from, to),
		fmt.Sprintf(`{"src":%d,"dst":%d,"from":%d,"to":%d,"mc_trials":10}`, src, dst, from, to),
		fmt.Sprintf(`{"src":%d,"dst":%d,"from":%d,"to":%d,"min_duration":-1}`, src, dst, from, to),
		fmt.Sprintf(`{"src":%d,"dst":%d,"from":%d,"to":%d,"filter_id":"serve-test-unregistered"}`, src, dst, from, to),
	} {
		resp := post(t, ts.URL+"/v1/reachable", bad)
		apiErr := decodeErr(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d (%+v), want 400", bad, resp.StatusCode, apiErr)
		}
	}
}

// TestMonteCarloQueryTimeout: the server's QueryTimeout stops a Monte-Carlo
// query mid-sampling and answers 504, the admission slot released.
func TestMonteCarloQueryTimeout(t *testing.T) {
	eng, err := streach.Open("oracle", streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 48, NumTicks: 240, Seed: 3}), streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{QueryTimeout: 20 * time.Millisecond, MaxInFlight: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	resp := post(t, ts.URL+"/v1/reachable", `{"src":0,"dst":1,"from":0,"to":239,"prob":0.5,"mc_trials":262144}`)
	if apiErr := decodeErr(t, resp); resp.StatusCode != http.StatusGatewayTimeout || apiErr.Code != CodeCanceled {
		t.Fatalf("status %d %+v, want 504 %s", resp.StatusCode, apiErr, CodeCanceled)
	}
	if code, _ := postReachable(t, ts.URL, `{"src":0,"dst":1,"from":0,"to":239}`); code != http.StatusOK {
		t.Fatalf("query after the timeout: status %d, want 200 (slot released)", code)
	}
}
