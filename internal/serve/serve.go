// Package serve is the network serving layer over streach engines: an
// HTTP/JSON surface (stdlib net/http only) exposing reachability,
// reachable-set (NDJSON streaming), top-k and live ingest endpoints,
// behind a query-result cache with ingest/seal invalidation, admission
// control (concurrency limiter with a bounded wait queue plus per-client
// token-bucket quotas) and Prometheus-style metrics. cmd/streachd wires it
// to a listener and signals; cmd/streachload drives it under sustained
// load.
//
// The boolean point-query path stays on the engines' zero-allocation
// steady state: the serve layer calls Engine.Reachable directly and all
// additional allocation happens at the HTTP/JSON boundary (request
// decode, response encode) or in the result cache.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"streach"
)

// Config tunes a Server. The zero value serves with a 4096-entry cache,
// 2×GOMAXPROCS in-flight queries, a 64-deep wait queue and no per-client
// quotas.
type Config struct {
	// Dataset labels the served dataset in /v1/stats and load reports.
	Dataset string
	// CacheEntries caps the query-result cache; 0 selects 4096, negative
	// disables caching.
	CacheEntries int
	// MaxInFlight bounds concurrently evaluating queries; 0 selects
	// 2×GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds queries waiting for an evaluation slot; beyond it
	// requests are shed with 503. 0 selects 64.
	MaxQueue int
	// ClientQPS is the per-client sustained query rate (token-bucket
	// refill); 0 disables quotas. ClientBurst is the bucket size (0:
	// 2×ClientQPS, minimum 1). Clients are identified by the X-Client-ID
	// header, falling back to the remote IP.
	ClientQPS   float64
	ClientBurst int
	// QueryTimeout bounds one evaluation; 0 means no server-side timeout
	// (the client's context still cancels).
	QueryTimeout time.Duration
	// SetChunk is the NDJSON chunk size of /v1/reachable-set; 0 selects
	// 512 objects per line.
	SetChunk int
}

// Server is the HTTP serving layer over one Engine. Create with New, use
// as an http.Handler, and drive lifecycle with Serve/BeginDrain.
type Server struct {
	eng   streach.Engine
	live  *streach.LiveEngine // non-nil when eng is live: enables /v1/ingest
	cfg   Config
	cache *resultCache
	adm   *admission
	met   *metricsSet
	mux   *http.ServeMux
	start time.Time

	numObjects          int
	envWidth, envHeight float64

	// ingestMu serializes /v1/ingest bodies: LiveEngine appends must not
	// run concurrently.
	ingestMu sync.Mutex

	drainMu  sync.Mutex
	draining bool
}

// New returns a Server over eng. When eng is a *streach.LiveEngine the
// ingest endpoint is enabled and the engine's ingest/seal hooks are
// registered to invalidate the result cache — exactly the cached entries
// whose interval overlaps newly ingested ticks are dropped, so no stale
// answer is ever served across an ingest or a segment seal.
func New(eng streach.Engine, cfg Config) *Server {
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.SetChunk <= 0 {
		cfg.SetChunk = 512
	}
	s := &Server{
		eng:        eng,
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheEntries),
		adm:        newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.ClientQPS, cfg.ClientBurst),
		met:        newMetricsSet(),
		start:      time.Now(),
		numObjects: eng.Stats().NumObjects,
	}
	if le, ok := eng.(*streach.LiveEngine); ok {
		s.live = le
		le.OnIngest(func(iv streach.Interval) {
			// Changed contact content in iv — a frontier instant, a late
			// add, a retraction — can only change answers whose interval
			// overlaps iv; drop exactly those.
			s.cache.invalidateOverlapping(iv)
		})
		le.OnSegmentSeal(func(streach.Interval) {
			// Per-tick ingest invalidation already dropped everything the
			// sealed slab could affect; the seal itself is only counted.
			s.met.sealedEvents.Add(1)
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/reachable", s.instrument("reachable", true, s.handleReachable))
	mux.HandleFunc("/v1/reachable-set", s.instrument("reachable-set", true, s.handleReachableSet))
	mux.HandleFunc("/v1/topk", s.instrument("topk", true, s.handleTopK))
	mux.HandleFunc("/v1/ingest", s.instrument("ingest", true, s.handleIngest))
	mux.HandleFunc("/v1/stats", s.instrument("stats", false, s.handleStats))
	mux.HandleFunc("/metrics", s.instrument("metrics", false, s.handleMetrics))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no route %s", r.URL.Path), 0)
	})
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain switches the server into shutdown mode: every subsequent
// request is rejected with 503 shutting_down while in-flight evaluations
// run to completion.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
}

func (s *Server) isDraining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// Serve accepts on l until ctx is cancelled, then drains: new work is
// rejected with 503, in-flight queries finish, and the server exits
// within grace (in-flight work still running at the deadline is
// abandoned). This is the lifecycle cmd/streachd runs under SIGTERM.
func (s *Server) Serve(ctx context.Context, l net.Listener, grace time.Duration) error {
	hs := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		return fmt.Errorf("serve: drain exceeded %v: %w", grace, err)
	}
	return nil
}

// statusRecorder captures the status code an endpoint wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so NDJSON streaming works
// through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// clientID identifies the requester for quota accounting.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// instrument wraps an endpoint with drain rejection, method enforcement,
// admission control (when admit is set) and metrics recording.
func (s *Server) instrument(name string, admit bool, h http.HandlerFunc) http.HandlerFunc {
	wantMethod := http.MethodPost
	if !admit { // stats, metrics
		wantMethod = http.MethodGet
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			s.met.endpoint(name).record(rec.status, time.Since(start))
		}()
		if r.Method != wantMethod {
			writeError(rec, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				fmt.Sprintf("%s needs %s", r.URL.Path, wantMethod), 0)
			return
		}
		if s.isDraining() {
			writeError(rec, http.StatusServiceUnavailable, CodeShuttingDown,
				"server is draining; no new work accepted", 0)
			return
		}
		if admit {
			release, err := s.adm.acquire(r.Context(), clientID(r))
			if err != nil {
				var adErr *admissionError
				switch {
				case errors.As(err, &adErr):
					writeError(rec, adErr.status, adErr.code, adErr.message, adErr.retryAfter)
				default: // client context cancelled while queued
					writeError(rec, StatusClientClosedRequest, CodeCanceled,
						"request cancelled while queued for admission", 0)
				}
				return
			}
			defer release()
		}
		h(rec, r)
	}
}

// queryCtx applies the configured per-query timeout.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	}
	return r.Context(), func() {}
}

// cachedEval answers one cacheable query: the cached response when key is
// present (hit reports it), otherwise eval's under the query context,
// stored afterwards. The cache version is captured before eval runs, so an
// answer an overlapping ingest made stale while it evaluated is never
// stored. noCache bypasses the cache both ways.
func cachedEval[T any](s *Server, r *http.Request, key cacheKey, noCache bool, eval func(context.Context) (T, error)) (resp T, hit bool, err error) {
	if !noCache {
		if v, ok := s.cache.get(key); ok {
			return v.(T), true, nil
		}
	}
	ver := s.cache.version()
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	if resp, err = eval(ctx); err != nil {
		return resp, false, err
	}
	if !noCache {
		s.cache.putFresh(key, resp, ver)
	}
	return resp, false, nil
}

// decode parses the request body strictly (unknown fields are a 400).
func decode(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	return nil
}

// writeEngineError maps an evaluation error onto the envelope: semantics
// validation failures (inconsistent probabilistic parameters, unregistered
// filter IDs) are the client's fault (400), context cancellation (client
// gone or timeout) is 499/504, anything else 500.
func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, streach.ErrBadSemantics):
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
	case errors.Is(err, context.Canceled):
		writeError(w, StatusClientClosedRequest, CodeCanceled, "query cancelled: "+err.Error(), 0)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, CodeCanceled, "query exceeded the server's time budget", 0)
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
	}
}

// ioJSON is the wire form of streach.IOStats.
type ioJSON struct {
	RandomReads     int64   `json:"random_reads"`
	SequentialReads int64   `json:"sequential_reads"`
	BufferHits      int64   `json:"buffer_hits"`
	Normalized      float64 `json:"normalized"`
}

func ioOf(s streach.IOStats) ioJSON {
	return ioJSON{
		RandomReads:     s.RandomReads,
		SequentialReads: s.SequentialReads,
		BufferHits:      s.BufferHits,
		Normalized:      s.Normalized,
	}
}

// validateObject reports an object ID outside the engine's dataset, naming
// the request field that held it (a 400-class problem).
func (s *Server) validateObject(field string, id int) error {
	if id < 0 || id >= s.numObjects {
		return fmt.Errorf("%s %d outside [0, %d)", field, id, s.numObjects)
	}
	return nil
}

// validateInterval reports a from/to pair that is not a tick range. A tick
// past math.MaxInt32 would wrap into streach.Tick, so it is refused by name.
func validateInterval(from, to int) error {
	switch {
	case from > math.MaxInt32:
		return fmt.Errorf("from %d exceeds the largest tick %d", from, math.MaxInt32)
	case to > math.MaxInt32:
		return fmt.Errorf("to %d exceeds the largest tick %d", to, math.MaxInt32)
	case from < 0 || to < from:
		return fmt.Errorf("interval [%d, %d] is not a valid tick range", from, to)
	}
	return nil
}

// --- /v1/reachable ---

type reachableRequest struct {
	Src          int  `json:"src"`
	Dst          int  `json:"dst"`
	From         int  `json:"from"`
	To           int  `json:"to"`
	MaxHops      int  `json:"max_hops,omitempty"`
	TrackArrival bool `json:"track_arrival,omitempty"`
	// Contact predicates (§7 filtered reachability): propagation uses only
	// contacts of at least min_duration ticks, closest approach at most
	// max_weight metres, accepted by the registered predicate filter_id.
	MinDuration int     `json:"min_duration,omitempty"`
	MaxWeight   float64 `json:"max_weight,omitempty"`
	FilterID    string  `json:"filter_id,omitempty"`
	// Probabilistic reachability (§7 uncertain contacts): per-contact
	// transmission probability, reachability threshold τ, and the optional
	// seeded Monte-Carlo estimator (mc_trials > 0 selects it).
	Prob          float64 `json:"prob,omitempty"`
	ProbThreshold float64 `json:"prob_threshold,omitempty"`
	MCTrials      int     `json:"mc_trials,omitempty"`
	MCSeed        int64   `json:"mc_seed,omitempty"`
	NoCache       bool    `json:"no_cache,omitempty"`
}

type reachableResponse struct {
	Reachable bool `json:"reachable"`
	Arrival   int  `json:"arrival"`
	Hops      int  `json:"hops"`
	// Prob is the best-path probability (exact) or the Monte-Carlo
	// reliability estimate; omitted on non-probabilistic queries.
	Prob      float64 `json:"prob,omitempty"`
	Native    bool    `json:"native"`
	Expanded  int     `json:"expanded"`
	LatencyUS float64 `json:"latency_us"`
	IO        ioJSON  `json:"io"`
	Cached    bool    `json:"cached"`
}

func (s *Server) handleReachable(w http.ResponseWriter, r *http.Request) {
	var req reachableRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	if err := errors.Join(
		s.validateObject("src", req.Src), s.validateObject("dst", req.Dst),
		validateInterval(req.From, req.To),
	); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	if req.MaxHops < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "max_hops must be non-negative", 0)
		return
	}
	sem := streach.Semantics{
		MaxHops:       req.MaxHops,
		TrackArrival:  req.TrackArrival,
		MinDuration:   req.MinDuration,
		MaxWeight:     req.MaxWeight,
		FilterID:      req.FilterID,
		Prob:          req.Prob,
		ProbThreshold: req.ProbThreshold,
		MCTrials:      req.MCTrials,
		MCSeed:        req.MCSeed,
	}
	key := cacheKey{
		kind: kindReachable,
		src:  streach.ObjectID(req.Src), dst: streach.ObjectID(req.Dst),
		lo: streach.Tick(req.From), hi: streach.Tick(req.To),
		sem: sem,
	}
	resp, hit, err := cachedEval(s, r, key, req.NoCache, func(ctx context.Context) (reachableResponse, error) {
		res, err := s.eng.Reachable(ctx, streach.Query{
			Src:       streach.ObjectID(req.Src),
			Dst:       streach.ObjectID(req.Dst),
			Interval:  streach.NewInterval(streach.Tick(req.From), streach.Tick(req.To)),
			Semantics: sem,
		})
		if err != nil {
			return reachableResponse{}, err
		}
		s.met.observeExpanded("reachable", res.Expanded)
		if sem.Filter().Active() {
			s.met.filteredQueries.Add(1)
		}
		if sem.Prob > 0 {
			s.met.probabilisticQueries.Add(1)
		}
		return reachableResponse{
			Reachable: res.Reachable,
			Arrival:   int(res.Arrival),
			Hops:      res.Hops,
			Prob:      res.Prob,
			Native:    res.Native,
			Expanded:  res.Expanded,
			LatencyUS: float64(res.Latency) / float64(time.Microsecond),
			IO:        ioOf(res.IO),
		}, nil
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	resp.Cached = hit
	writeJSON(w, resp)
}

// --- /v1/reachable-set (NDJSON streaming) ---

type setRequest struct {
	Src     int  `json:"src"`
	From    int  `json:"from"`
	To      int  `json:"to"`
	NoCache bool `json:"no_cache,omitempty"`
}

type setHeader struct {
	Src    int  `json:"src"`
	From   int  `json:"from"`
	To     int  `json:"to"`
	Cached bool `json:"cached"`
}

type setChunk struct {
	Objects []int `json:"objects"`
}

type setTrailer struct {
	Done      bool    `json:"done"`
	Count     int     `json:"count"`
	Expanded  int     `json:"expanded"`
	LatencyUS float64 `json:"latency_us"`
	IO        ioJSON  `json:"io"`
}

// cachedSet is the cache value of a reachable-set query.
type cachedSet struct {
	objects []streach.ObjectID
	trailer setTrailer
}

func (s *Server) handleReachableSet(w http.ResponseWriter, r *http.Request) {
	var req setRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	if err := errors.Join(
		s.validateObject("src", req.Src), validateInterval(req.From, req.To),
	); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	key := cacheKey{
		kind: kindSet,
		src:  streach.ObjectID(req.Src),
		lo:   streach.Tick(req.From), hi: streach.Tick(req.To),
	}
	cs, cached, err := cachedEval(s, r, key, req.NoCache, func(ctx context.Context) (cachedSet, error) {
		res, err := s.eng.ReachableSet(ctx, streach.ObjectID(req.Src),
			streach.NewInterval(streach.Tick(req.From), streach.Tick(req.To)))
		if err != nil {
			return cachedSet{}, err
		}
		s.met.observeExpanded("reachable-set", res.Expanded)
		return cachedSet{objects: res.Objects, trailer: setTrailer{
			Done:      true,
			Count:     len(res.Objects),
			Expanded:  res.Expanded,
			LatencyUS: float64(res.Latency) / float64(time.Microsecond),
			IO:        ioOf(res.IO),
		}}, nil
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}

	// Stream: one header line, the set in fixed-size chunks, one trailer.
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(setHeader{Src: req.Src, From: req.From, To: req.To, Cached: cached})
	flush()
	chunk := make([]int, 0, s.cfg.SetChunk)
	for i, obj := range cs.objects {
		chunk = append(chunk, int(obj))
		if len(chunk) == s.cfg.SetChunk || i == len(cs.objects)-1 {
			enc.Encode(setChunk{Objects: chunk})
			flush()
			chunk = chunk[:0]
		}
	}
	enc.Encode(cs.trailer)
	flush()
}

// --- /v1/topk ---

type topKRequest struct {
	Src     int     `json:"src"`
	From    int     `json:"from"`
	To      int     `json:"to"`
	K       int     `json:"k"`
	Decay   float64 `json:"decay"`
	NoCache bool    `json:"no_cache,omitempty"`
}

type rankedJSON struct {
	Object  int     `json:"object"`
	Hops    int     `json:"hops"`
	Arrival int     `json:"arrival"`
	Weight  float64 `json:"weight"`
}

type topKResponse struct {
	Items     []rankedJSON `json:"items"`
	Native    bool         `json:"native"`
	Expanded  int          `json:"expanded"`
	LatencyUS float64      `json:"latency_us"`
	IO        ioJSON       `json:"io"`
	Cached    bool         `json:"cached"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req topKRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	if err := errors.Join(
		s.validateObject("src", req.Src), validateInterval(req.From, req.To),
	); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	if req.K <= 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "k must be positive", 0)
		return
	}
	if !(req.Decay > 0 && req.Decay <= 1) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decay must be in (0, 1]", 0)
		return
	}
	key := cacheKey{
		kind: kindTopK,
		src:  streach.ObjectID(req.Src),
		lo:   streach.Tick(req.From), hi: streach.Tick(req.To),
		k: req.K, decay: req.Decay,
	}
	resp, hit, err := cachedEval(s, r, key, req.NoCache, func(ctx context.Context) (topKResponse, error) {
		res, err := s.eng.TopKReachable(ctx, streach.ObjectID(req.Src),
			streach.NewInterval(streach.Tick(req.From), streach.Tick(req.To)), req.K, req.Decay)
		if err != nil {
			return topKResponse{}, err
		}
		s.met.observeExpanded("topk", res.Expanded)
		items := make([]rankedJSON, len(res.Items))
		for i, it := range res.Items {
			items[i] = rankedJSON{
				Object: int(it.Object), Hops: it.Hops, Arrival: int(it.Arrival), Weight: it.Weight,
			}
		}
		return topKResponse{
			Items:     items,
			Native:    res.Native,
			Expanded:  res.Expanded,
			LatencyUS: float64(res.Latency) / float64(time.Microsecond),
			IO:        ioOf(res.IO),
		}, nil
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	resp.Cached = hit
	writeJSON(w, resp)
}

// --- /v1/ingest ---

type ingestRequest struct {
	// Instants holds one position list per feed instant; Instants[t][o]
	// is [x, y] of object o — the v1 positional form, which can only
	// append in tick order.
	Instants [][][2]float64 `json:"instants"`
	// Events is the v2 event form: contact adds and retractions at any
	// tick. Exactly one of Instants and Events must be present.
	Events []ingestEvent `json:"events"`
}

// ingestEvent is the wire form of streach.ContactEvent.
type ingestEvent struct {
	Tick    int  `json:"tick"`
	A       int  `json:"a"`
	B       int  `json:"b"`
	Retract bool `json:"retract,omitempty"`
}

// ingestReportJSON is the wire form of streach.IngestReport, returned for
// event-form ingests.
type ingestReportJSON struct {
	Applied       int      `json:"applied"`
	Late          int      `json:"late"`
	Retracted     int      `json:"retracted"`
	Duplicates    int      `json:"duplicates,omitempty"`
	RetractMisses int      `json:"retract_misses,omitempty"`
	Compacted     int      `json:"compacted,omitempty"`
	Sealed        [][2]int `json:"sealed,omitempty"`
}

type ingestResponse struct {
	Ticks          int               `json:"ticks"`
	SealedSegments int               `json:"sealed_segments"`
	Report         *ingestReportJSON `json:"report,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		writeError(w, http.StatusNotImplemented, CodeNotLive,
			fmt.Sprintf("backend %q serves a frozen dataset; ingest needs a live engine", s.eng.Name()), 0)
		return
	}
	var req ingestRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	switch {
	case len(req.Instants) > 0 && len(req.Events) > 0:
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"body carries both instants and events; send exactly one form", 0)
		return
	case len(req.Instants) == 0 && len(req.Events) == 0:
		writeError(w, http.StatusBadRequest, CodeBadRequest, "no instants or events in ingest body", 0)
		return
	case len(req.Events) > 0:
		s.ingestEvents(w, req.Events)
		return
	}
	// Validate every instant before applying any, so a malformed body is
	// rejected whole instead of leaving earlier instants silently ingested.
	for t, inst := range req.Instants {
		if len(inst) != s.numObjects {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("instant %d carries %d positions, want %d; nothing ingested", t, len(inst), s.numObjects), 0)
			return
		}
	}
	positions := make([]streach.Point, s.numObjects)
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	for t, inst := range req.Instants {
		for o, xy := range inst {
			positions[o] = streach.Point{X: xy[0], Y: xy[1]}
		}
		if err := s.live.AddInstant(positions); err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal,
				fmt.Sprintf("ingest instant %d: %v (%d of %d instants applied)", t, err, t, len(req.Instants)), 0)
			return
		}
	}
	s.met.ingestedTicks.Add(int64(len(req.Instants)))
	writeJSON(w, ingestResponse{
		Ticks:          s.live.NumTicks(),
		SealedSegments: s.live.NumSealedSegments(),
	})
}

// ingestEvents is the event-form half of /v1/ingest. Everything is
// validated before anything applies — structural problems are 400s, a
// retraction of a contact instant the feed does not currently hold is a
// 409 retract_miss (the wire contract is stricter than LiveEngine.Ingest,
// which counts misses and proceeds: a client retracting blind is a bug
// worth surfacing; note an add and its retraction therefore cannot share
// one batch). Ticks at or past the ingest horizon are a 400
// beyond_horizon.
func (s *Server) ingestEvents(w http.ResponseWriter, events []ingestEvent) {
	for i, ev := range events {
		switch {
		case ev.A < 0 || ev.A >= s.numObjects || ev.B < 0 || ev.B >= s.numObjects:
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("event %d: object outside [0, %d); nothing ingested", i, s.numObjects), 0)
			return
		case ev.A == ev.B:
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("event %d: self-contact of object %d; nothing ingested", i, ev.A), 0)
			return
		case ev.Tick < 0:
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("event %d: negative tick; nothing ingested", i), 0)
			return
		case ev.Tick > math.MaxInt32:
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("event %d: tick %d exceeds the largest tick %d; nothing ingested", i, ev.Tick, math.MaxInt32), 0)
			return
		}
	}
	evs := make([]streach.ContactEvent, len(events))
	for i, ev := range events {
		evs[i] = streach.ContactEvent{
			Tick:    streach.Tick(ev.Tick),
			A:       streach.ObjectID(ev.A),
			B:       streach.ObjectID(ev.B),
			Retract: ev.Retract,
		}
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	for i, ev := range evs {
		if ev.Retract && !s.live.ContactActiveAt(ev.A, ev.B, ev.Tick) {
			writeError(w, http.StatusConflict, CodeRetractMiss,
				fmt.Sprintf("event %d retracts contact (%d, %d) at tick %d, which is not ingested; nothing ingested",
					i, ev.A, ev.B, ev.Tick), 0)
			return
		}
	}
	before := s.live.NumTicks()
	rep, err := s.live.Ingest(evs)
	if err != nil {
		switch {
		case errors.Is(err, streach.ErrIngestHorizon):
			writeError(w, http.StatusBadRequest, CodeBeyondHorizon, err.Error()+"; nothing ingested", 0)
		case errors.Is(err, streach.ErrBadEvent):
			writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error()+"; nothing ingested", 0)
		default:
			writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
		}
		return
	}
	s.met.ingestedTicks.Add(int64(s.live.NumTicks() - before))
	report := &ingestReportJSON{
		Applied:       rep.Applied,
		Late:          rep.Late,
		Retracted:     rep.Retracted,
		Duplicates:    rep.Duplicates,
		RetractMisses: rep.RetractMisses,
		Compacted:     rep.Compacted,
	}
	for _, sp := range rep.Sealed {
		report.Sealed = append(report.Sealed, [2]int{int(sp.Lo), int(sp.Hi)})
	}
	writeJSON(w, ingestResponse{
		Ticks:          s.live.NumTicks(),
		SealedSegments: s.live.NumSealedSegments(),
		Report:         report,
	})
}

// --- /v1/stats ---

type poolJSON struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

type engineJSON struct {
	NumObjects     int   `json:"num_objects"`
	NumTicks       int   `json:"num_ticks"`
	IndexBytes     int64 `json:"index_bytes"`
	Segments       int   `json:"segments,omitempty"`
	SealedSegments int   `json:"sealed_segments,omitempty"`
	// The live delta-log and out-of-order ingest counters; always present
	// (zero on frozen backends) so monitors can rely on the fields.
	DeltaEvents   int       `json:"delta_events"`
	DirtySegments int       `json:"dirty_segments"`
	LateEvents    int64     `json:"late_events"`
	Retractions   int64     `json:"retractions"`
	Compactions   int64     `json:"compactions"`
	IO            ioJSON    `json:"io"`
	Pool          *poolJSON `json:"pool,omitempty"`
	// Sharding topology and scatter-gather traffic; present only on
	// "shard:*" backends (Shards > 0).
	Shards             int         `json:"shards,omitempty"`
	Partitioner        string      `json:"partitioner,omitempty"`
	CrossShardRatio    float64     `json:"cross_shard_ratio,omitempty"`
	CrossShardFrontier int64       `json:"cross_shard_frontier,omitempty"`
	ShardDetails       []shardJSON `json:"shard_details,omitempty"`
}

// shardJSON is the wire form of streach.ShardStats.
type shardJSON struct {
	Shard      int    `json:"shard"`
	Objects    int    `json:"objects"`
	Contacts   int    `json:"contacts"`
	IndexBytes int64  `json:"index_bytes"`
	IO         ioJSON `json:"io"`
}

type cacheJSON struct {
	Entries     int     `json:"entries"`
	Capacity    int     `json:"capacity"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Invalidated int64   `json:"invalidated"`
	Evicted     int64   `json:"evicted"`
	StalePuts   int64   `json:"stale_puts"`
	HitRate     float64 `json:"hit_rate"`
}

type admissionJSON struct {
	InFlight         int64   `json:"in_flight"`
	Waiting          int64   `json:"waiting"`
	MaxInFlight      int     `json:"max_in_flight"`
	MaxQueue         int     `json:"max_queue"`
	RejectedOverload int64   `json:"rejected_overload"`
	RejectedQuota    int64   `json:"rejected_quota"`
	ClientQPS        float64 `json:"client_qps,omitempty"`
}

// expandedBucketJSON is one cumulative histogram cell: observations ≤ LE.
type expandedBucketJSON struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// expandedJSON is one endpoint's expanded-contacts histogram: how many
// contact-list entries fresh evaluations expanded (cache hits excluded).
type expandedJSON struct {
	Count   int64                `json:"count"`
	Total   int64                `json:"total"`
	Mean    float64              `json:"mean"`
	Buckets []expandedBucketJSON `json:"buckets"`
}

type statsResponse struct {
	Backend   string        `json:"backend"`
	Dataset   string        `json:"dataset,omitempty"`
	Live      bool          `json:"live"`
	UptimeSec float64       `json:"uptime_sec"`
	EnvWidth  float64       `json:"env_width,omitempty"`
	EnvHeight float64       `json:"env_height,omitempty"`
	Engine    engineJSON    `json:"engine"`
	Cache     cacheJSON     `json:"cache"`
	Admission admissionJSON `json:"admission"`
	// ExpandedContacts is keyed by query endpoint; absent until the first
	// fresh evaluation has been observed.
	ExpandedContacts map[string]expandedJSON `json:"expanded_contacts,omitempty"`
}

// SetEnv records the dataset's environment so /v1/stats can report its
// width and height: load generators need them to synthesize plausible
// ingest positions.
func (s *Server) SetEnv(env streach.Rect) {
	s.envWidth, s.envHeight = env.Width(), env.Height()
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	ej := engineJSON{
		NumObjects:     st.NumObjects,
		NumTicks:       st.NumTicks,
		IndexBytes:     st.IndexBytes,
		Segments:       st.Segments,
		SealedSegments: st.SealedSegments,
		DeltaEvents:    st.DeltaEvents,
		DirtySegments:  st.DirtySegments,
		LateEvents:     st.LateEvents,
		Retractions:    st.Retractions,
		Compactions:    st.Compactions,
		IO:             ioOf(st.IO),
	}
	if st.HasPool {
		ej.Pool = &poolJSON{
			Hits:      st.Pool.Hits,
			Misses:    st.Pool.Misses,
			Evictions: st.Pool.Evictions,
			HitRate:   st.Pool.HitRate(),
		}
	}
	if st.Shards > 0 {
		ej.Shards = st.Shards
		ej.Partitioner = st.Partitioner
		ej.CrossShardRatio = st.CrossShardRatio
		ej.CrossShardFrontier = st.CrossShardFrontier
		for _, sh := range st.ShardDetails {
			ej.ShardDetails = append(ej.ShardDetails, shardJSON{
				Shard:      sh.Shard,
				Objects:    sh.Objects,
				Contacts:   sh.Contacts,
				IndexBytes: sh.IndexBytes,
				IO:         ioOf(sh.IO),
			})
		}
	}
	var expanded map[string]expandedJSON
	if names := s.met.expandedNames(); len(names) > 0 {
		expanded = make(map[string]expandedJSON, len(names))
		for _, name := range names {
			h := s.met.expandedHistogram(name)
			ex := expandedJSON{Count: h.count.Load(), Total: h.sum.Load()}
			if ex.Count > 0 {
				ex.Mean = float64(ex.Total) / float64(ex.Count)
			}
			var cum int64
			for i, bound := range expandedBounds {
				cum += h.buckets[i].Load()
				ex.Buckets = append(ex.Buckets, expandedBucketJSON{LE: bound, Count: cum})
			}
			expanded[name] = ex
		}
	}
	writeJSON(w, statsResponse{
		Backend:   s.eng.Name(),
		Dataset:   s.cfg.Dataset,
		Live:      s.live != nil,
		UptimeSec: time.Since(s.start).Seconds(),
		EnvWidth:  s.envWidth,
		EnvHeight: s.envHeight,
		Engine:    ej,
		Cache: cacheJSON{
			Entries:     s.cache.len(),
			Capacity:    s.cfg.CacheEntries,
			Hits:        s.cache.hits.Load(),
			Misses:      s.cache.misses.Load(),
			Invalidated: s.cache.invalidated.Load(),
			Evicted:     s.cache.evicted.Load(),
			StalePuts:   s.cache.staleDrops.Load(),
			HitRate:     s.cache.hitRate(),
		},
		Admission: admissionJSON{
			InFlight:         s.adm.inFlight.Load(),
			Waiting:          s.adm.waiting.Load(),
			MaxInFlight:      s.adm.maxInFlight,
			MaxQueue:         s.adm.maxQueue,
			RejectedOverload: s.adm.rejectedQueue.Load(),
			RejectedQuota:    s.adm.rejectedQuota.Load(),
			ClientQPS:        s.adm.rate,
		},
		ExpandedContacts: expanded,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetrics(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
