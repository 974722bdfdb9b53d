package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// socketServer is a handler listening on a loopback port inside this
// process.
type socketServer struct {
	addr string
	stop func()
}

// startServer listens on a free loopback port. Untraced, the server runs
// serve's own accept-and-drain lifecycle; traced, the benchmark owns the
// http.Server so that its span middleware can sit in front of the handler.
func startServer(ctx context.Context, srv *server, rec *recorder) (*socketServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	if rec == nil {
		cctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() { done <- srv.serve(cctx, l) }()
		return &socketServer{addr: l.Addr().String(), stop: func() { cancel(); <-done }}, nil
	}
	hs := &http.Server{Handler: spanMiddleware(rec, srv)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(l) // returns http.ErrServerClosed once stop runs
	}()
	stop := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(sctx) != nil {
			hs.Close()
		}
		<-done
	}
	return &socketServer{addr: l.Addr().String(), stop: stop}, nil
}

// appendRequest serialises one POST into dst without allocating; ref, when
// its rung is set, adds the span header.
func appendRequest(dst []byte, path string, body []byte, ref spanRef) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n"...)
	if ref.rung != "" {
		dst = append(dst, spanHeader...)
		dst = append(dst, ": "...)
		dst = appendSpanRef(dst, ref)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

// socketClient is one keep-alive connection with its request scratch.
type socketClient struct {
	conn    *httpConn
	scratch []byte
}

// post sends one request and reads the response. With a recorder the
// round trip is a "socket" span, whose reference travels in the span header
// so that the server side nests under it.
func (sc *socketClient) post(rec *recorder, op int, rung, path string, body []byte) (status int, resp []byte, took time.Duration, err error) {
	var ref spanRef
	id := rec.begin(-1, op, "socket", rung)
	if id >= 0 {
		ref = spanRef{id: id, op: op, rung: rung}
	}
	sc.scratch = appendRequest(sc.scratch[:0], path, body, ref)
	t0 := time.Now()
	status, resp, err = sc.conn.roundTrip(sc.scratch)
	took = time.Since(t0)
	rec.end(id, counts{Status: status})
	return status, resp, took, err
}

// reachable posts one /v1/reachable body and checks the answer.
func (sc *socketClient) reachable(rec *recorder, op int, rung string, body []byte, want bool) opFlags {
	status, resp, _, err := sc.post(rec, op, rung, "/v1/reachable", body)
	return reachableOutcome(status, resp, err, want)
}

// responseOutcome classifies a /v1/reachable response by status and form,
// and returns the answer it carries.
func responseOutcome(status int, resp []byte, err error) (flags opFlags, reachable bool) {
	switch {
	case err != nil:
		return 0, false
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return opShed, false
	case status != http.StatusOK:
		return 0, false
	}
	reachable, ok := jsonBool(resp, "reachable")
	if !ok {
		return 0, false
	}
	flags = opOK
	if cached, _ := jsonBool(resp, "cached"); cached {
		flags |= opCached
	}
	return flags, reachable
}

// reachableOutcome is responseOutcome with the answer checked: a wrong
// answer is a failed operation.
func reachableOutcome(status int, resp []byte, err error, want bool) opFlags {
	flags, got := responseOutcome(status, resp, err)
	if flags&opOK != 0 && got != want {
		return 0
	}
	return flags
}

// handlerCall runs one /v1/reachable request through a handler in process.
func handlerCall(ctx context.Context, h http.Handler, w *memWriter, body []byte, ref spanRef) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/reachable", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	if ref.rung != "" {
		req.Header.Set(spanHeader, string(appendSpanRef(nil, ref)))
	}
	w.reset()
	h.ServeHTTP(w, req)
	return w.status, w.body.Bytes()
}

// handlerPass sends the list through a traced handler in process: the
// middleware opens a root "serve" span per request and the engine
// decorator, when there is one, nests under it.
func (r *run) handlerPass(h http.Handler, rung string, bodies [][]byte, want []bool) {
	w := newMemWriter()
	var failed int64
	for i, body := range bodies {
		status, resp := handlerCall(r.ctx, h, w, body, spanRef{id: -1, op: i, rung: rung})
		if reachableOutcome(status, resp, nil, want[i])&opOK == 0 {
			failed++
		}
	}
	r.res.count(int64(len(bodies)), failed)
}

func (r *run) socketPass(sc *socketClient, rung string, bodies [][]byte, want []bool) {
	var failed int64
	for i, body := range bodies {
		if sc.reachable(r.rec, i, rung, body, want[i])&opOK == 0 {
			failed++
		}
	}
	r.res.count(int64(len(bodies)), failed)
}

// spanP50 returns the median duration and the median self time of the
// spans of one rung and layer.
func spanP50(spans []span, self []time.Duration, rung, layer string) (dur, selfUS float64) {
	var ds, ss []time.Duration
	for i := range spans {
		if spans[i].Rung == rung && spans[i].Layer == layer {
			ds = append(ds, spans[i].duration())
			ss = append(ss, self[i])
		}
	}
	return quantileOfUS(ds, 0.5), quantileOfUS(ss, 0.5)
}

func reachableBodies(qs []pointQuery, noCache bool) [][]byte {
	out := make([][]byte, len(qs))
	for i, q := range qs {
		out[i] = reachableBody(q, noCache)
	}
	return out
}

// --- serve-cached ---

// cachedDraw is one scheduled request: which pool query, and whether it
// bypasses the result cache.
type cachedDraw struct {
	index int32
	miss  bool
}

type cachedInputs struct {
	*pointInputs
	hit, miss [][]byte // request bodies per pool query, with and without no_cache
	sched     [2][]cachedDraw
}

func (r *run) cachedInputs() *cachedInputs {
	in := &cachedInputs{pointInputs: r.pointInputs()}
	in.hit = reachableBodies(in.pool, false)
	in.miss = reachableBodies(in.pool, true)
	rng := r.rng(3)
	for c := range in.sched {
		in.sched[c] = make([]cachedDraw, 1<<15)
		for k := range in.sched[c] {
			// 90 % from the hot set through the cache, 10 % evaluated.
			in.sched[c][k] = cachedDraw{index: int32(rng.Intn(r.p.hotCached)), miss: rng.Intn(10) == 0}
			if in.sched[c][k].miss {
				in.sched[c][k].index = int32(rng.Intn(len(in.pool)))
			}
		}
	}
	return in
}

// cachedSystem is serve-cached set up: the engine, the server on its
// socket and two client connections; in a traced run also a second,
// span-recording server over the same engine.
type cachedSystem struct {
	eng     *engine
	plain   *socketServer
	clients [2]*socketClient
	traced  *socketServer
	tclient [2]*socketClient
}

func (s *cachedSystem) close() {
	for _, cl := range [][2]*socketClient{s.clients, s.tclient} {
		for _, c := range cl {
			if c != nil {
				c.conn.close()
			}
		}
	}
	if s.plain != nil {
		s.plain.stop()
	}
	if s.traced != nil {
		s.traced.stop()
	}
}

// connect dials the two keep-alive connections every socket workload uses.
func connect(ss *socketServer) (cl [2]*socketClient, err error) {
	for i := range cl {
		conn, err := dialHTTP(ss.addr)
		if err != nil {
			if i > 0 {
				cl[0].conn.close()
			}
			return [2]*socketClient{}, err
		}
		cl[i] = &socketClient{conn: conn}
	}
	return cl, nil
}

func (r *run) setupCached(in *cachedInputs) (*cachedSystem, error) {
	eng, err := openEngine("reachgraph-mem", in.d.extractContacts().source(), 0, 0)
	if err != nil {
		return nil, err
	}
	s := &cachedSystem{eng: eng}
	if s.plain, err = startServer(r.ctx, newServer(eng, in.d.name), nil); err != nil {
		return nil, err
	}
	if s.clients, err = connect(s.plain); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *cachedSystem) instance(in *cachedInputs) *instance {
	return &instance{
		close: s.close,
		op: func(c, seq int, rec *recorder) opFlags {
			d := in.sched[c][seq%len(in.sched[c])]
			body, client := in.hit[d.index], s.clients[c]
			if d.miss {
				body = in.miss[d.index]
			}
			if rec != nil {
				client = s.tclient[c]
			}
			return client.reachable(rec, int(d.index), "window", body, in.want[d.index])
		},
	}
}

func (r *run) runServeCached() error {
	in := r.cachedInputs()
	if !r.trace {
		return r.measureClosed(func() (*instance, error) {
			s, err := r.setupCached(in)
			if err != nil {
				return nil, err
			}
			return s.instance(in), nil
		})
	}

	s, err := r.setupCached(in)
	if err != nil {
		return err
	}
	defer s.close()
	n := r.p.ladderPoint
	list, want := in.pool[:n], in.want[:n]

	// Rung 0: the engine alone.
	memPass := r.pointPass("reachgraph-mem", "engine", list, want, s.eng.reach)
	r.layer("reachgraph.mem_point_p50_us", memPass.p50())

	// Rung 1: ServeHTTP in process, through the span middleware and the
	// engine decorator: "serve" ⊃ "engine". First every request bypasses
	// the cache, then one pass fills it and the next one hits it.
	tracedSrv := newServer(s.eng.traced(r.rec), in.d.name)
	tracedH := spanMiddleware(r.rec, tracedSrv)
	r.handlerPass(tracedH, "ServeHTTP.miss", in.miss[:n], want)
	r.handlerPass(tracedH, "ServeHTTP.fill", in.hit[:n], want)
	r.handlerPass(tracedH, "ServeHTTP.hit", in.hit[:n], want)

	// Rung 2: the same handler behind a real socket: "socket" ⊃ "serve" ⊃
	// "engine" per request.
	if s.traced, err = startServer(r.ctx, tracedSrv, r.rec); err != nil {
		return err
	}
	if s.tclient, err = connect(s.traced); err != nil {
		return err
	}
	r.socketPass(s.tclient[0], "socket.miss", in.miss[:n], want)
	r.socketPass(s.tclient[0], "socket.hit", in.hit[:n], want)

	self := selfTimes(r.rec.spans)
	_, serveSelf := spanP50(r.rec.spans, self, "ServeHTTP.miss", "serve")
	hitDur, _ := spanP50(r.rec.spans, self, "ServeHTTP.hit", "serve")
	_, sockMiss := spanP50(r.rec.spans, self, "socket.miss", "socket")
	_, sockHit := spanP50(r.rec.spans, self, "socket.hit", "socket")
	r.layer("serve.self_p50_us", serveSelf)
	r.layer("serve.hit_p50_us", hitDur)
	r.layer("socket.self_p50_us", (sockMiss+sockHit)/2)

	// Allocations and response size of the plain handler, no spans.
	plain := newServer(s.eng, in.d.name)
	w := newMemWriter()
	var respBytes int
	mallocs, _ := allocsOver(func() {
		for i := 0; i < n; i++ {
			_, resp := handlerCall(r.ctx, plain, w, in.miss[i], spanRef{})
			respBytes += len(resp)
		}
	})
	r.layer("serve.allocs_per_request", mallocs/float64(n))
	r.layer("serve.resp_bytes", float64(respBytes)/float64(n))

	two := r.tracedWindows(s.instance(in))
	r.layer("loadgen.positive_share", positiveShare(in.want))
	done := float64(two.all.n)
	r.layer("serve.cache_hit_rate", float64(two.cached)/max(done, 1))
	r.layer("serve.shed_share", float64(two.shed)/max(done+float64(two.windowFailed), 1))
	return nil
}

// --- serve-live ---

const slabTicks = 128 // newLive's SegmentTicks

// liveTemplate is a query relative to the feed: `length` ticks ending
// `back` ticks behind a reference tick.
type liveTemplate struct{ src, dst, length, back int }

// before places the template just behind the frontier: a fresh query.
func (t liveTemplate) before(frontier int) pointQuery {
	return pointQuery{Src: t.src, Dst: t.dst, Lo: frontier - t.back - t.length, Hi: frontier - t.back - 1}
}

// hotAt places the template behind the start of the slab the frontier is
// in, so that a hot query repeats exactly for as long as the frontier stays
// in that slab, and the result cache can answer it until a late contact
// lands inside its interval.
func (t liveTemplate) hotAt(frontier int) pointQuery {
	return t.before(frontier/slabTicks*slabTicks + 1)
}

// templates draws n templates whose lengths and offsets are stratified.
func (r *run) templates(rng *rand.Rand, n, maxBack int) []liveTemplate {
	lengths := stratified(rng, n, r.p.minLen, r.p.maxLen)
	backs := stratified(rng, n, 0, maxBack-1)
	out := make([]liveTemplate, n)
	for i := range out {
		src, dst := pairOf(rng, r.p.d1Objects)
		out[i] = liveTemplate{src: src, dst: dst, length: lengths[i], back: backs[i]}
	}
	return out
}

type liveInputs struct {
	d        *dataset
	instants [][]byte // /v1/ingest bodies, one per streamed tick
	events   [][]byte // /v1/ingest event bodies; nil where a post carries none
	hot      []liveTemplate
	queries  [][]byte // /v1/reachable bodies in schedule order
	period   time.Duration
}

// frontierAt is the number of instants the feed holds once `elapsed` of the
// stream has passed, by the ingest schedule.
func (r *run) frontierAt(elapsed time.Duration) int {
	return min(r.p.livePreload+int(elapsed/r.p.ingestEvery), r.p.liveTicks)
}

func (r *run) liveInputs(total time.Duration) *liveInputs {
	p := r.p
	in := &liveInputs{
		d:      genRandomWaypoint("D1-live", p.d1Objects, p.liveTicks, liveSeed),
		period: time.Second / time.Duration(p.liveQPS),
	}

	var b []byte
	for t := p.livePreload; t < p.liveTicks; t++ {
		b = append(b[:0], `{"instants":[[`...)
		for o := 0; o < p.d1Objects; o++ {
			x, y := in.d.position(o, t)
			if o > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendFloat(b, x, 'f', 2, 64)
			b = append(b, ',')
			b = strconv.AppendFloat(b, y, 'f', 2, 64)
			b = append(b, ']')
		}
		b = append(b, "]]}"...)
		in.instants = append(in.instants, bytes.Clone(b))
	}

	// Late contacts: every lateEvery-th post adds lateBatch contacts at
	// ticks inside the last three slabs, and retracts a quarter of the
	// batch posted retractAfter posts earlier. Every (tick, a, b) is used
	// once, so a retraction always finds its contact.
	rng := r.rng(4)
	type ev struct{ tick, a, b int }
	used := map[ev]bool{}
	batches := map[int][]ev{}
	in.events = make([][]byte, len(in.instants))
	lateSpan := min(3*slabTicks, p.livePreload-1)
	for k := 0; k < len(in.instants); k += p.lateEvery {
		frontier := p.livePreload + k + 1
		var adds []ev
		for len(adds) < p.lateBatch {
			a, bb := pairOf(rng, p.d1Objects)
			e := ev{tick: frontier - 2 - rng.Intn(lateSpan-1), a: a, b: bb}
			if !used[e] {
				used[e] = true
				adds = append(adds, e)
			}
		}
		batches[k] = adds
		b = append(b[:0], `{"events":[`...)
		for i, e := range adds {
			if i > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, `{"tick":%d,"a":%d,"b":%d}`, e.tick, e.a, e.b)
		}
		if old, ok := batches[k-p.retractAfter]; ok {
			for _, e := range old[:len(old)/4] {
				b = fmt.Appendf(b, `,{"tick":%d,"a":%d,"b":%d,"retract":true}`, e.tick, e.a, e.b)
			}
		}
		b = append(b, "]}"...)
		in.events[k] = bytes.Clone(b)
	}

	// Queries: every hotEvery-th from the hot templates, the rest fresh,
	// every interval ending within liveSpan ticks of where the frontier
	// will be. The hot share stays well below a half so that the median
	// latency sits among the evaluated queries, not on the boundary
	// between cache hits and misses.
	rng = r.rng(5)
	in.hot = r.templates(rng, p.liveHot, p.liveSpan-slabTicks)
	n := int(total/in.period) + 1
	fresh := r.templates(rng, n, p.liveSpan)
	in.queries = make([][]byte, n)
	for i := range in.queries {
		frontier := r.frontierAt(time.Duration(i) * in.period)
		q := fresh[i].before(frontier)
		if i%p.hotEvery == 0 {
			q = in.hot[rng.Intn(len(in.hot))].hotAt(frontier)
		}
		in.queries[i] = reachableBody(q, false)
	}
	return in
}

// liveSystem is serve-live set up.
type liveSystem struct {
	lv      *live
	srv     *server
	sock    *socketServer
	query   *socketClient
	ingest  *socketClient
	preload []time.Duration // per-instant AddInstant times of the preload
}

func (s *liveSystem) close() {
	for _, c := range []*socketClient{s.query, s.ingest} {
		if c != nil {
			c.conn.close()
		}
	}
	if s.sock != nil {
		s.sock.stop()
	}
}

// setupLive opens the live engine, loads the first livePreload instants,
// and puts the server on its socket with the two connections dialled.
func (r *run) setupLive(in *liveInputs) (*liveSystem, error) {
	lv, err := newLive(in.d)
	if err != nil {
		return nil, err
	}
	s := &liveSystem{lv: lv, preload: make([]time.Duration, 0, r.p.livePreload)}
	for t := 0; t < r.p.livePreload; t++ {
		t0 := time.Now()
		if err := lv.addInstant(in.d, t); err != nil {
			return nil, fmt.Errorf("preload instant %d: %w", t, err)
		}
		s.preload = append(s.preload, time.Since(t0))
	}
	s.srv = newServer(lv.engine(), in.d.name)
	if s.sock, err = startServer(r.ctx, s.srv, r.rec); err != nil {
		return nil, err
	}
	cl, err := connect(s.sock)
	if err != nil {
		s.close()
		return nil, err
	}
	s.query, s.ingest = cl[0], cl[1]
	return s, nil
}

// ingestStats is what the ingest connection records.
type ingestStats struct {
	posts     hist // round trips of instant posts due inside a window
	attempted int64
	failed    int64
}

// liveStream runs the two connections of serve-live from `start` until
// the last window ends: one sends queries open loop, each timed from the
// moment it was due; the other posts the feed. Requests due inside
// windows[k] are recorded in stats[k], the others in one more element at
// the end; a window with a recorder is traced.
func (r *run) liveStream(s *liveSystem, in *liveInputs, start time.Time, windows []window, recs []*recorder) ([]*clientStats, *ingestStats) {
	end := windows[len(windows)-1].end
	which := func(t time.Time) int {
		for k, w := range windows {
			if w.slice(t) >= 0 {
				return k
			}
		}
		return -1
	}
	stats := make([]*clientStats, len(windows)+1) // the last one: outside every window
	for k := range stats {
		stats[k] = new(clientStats)
	}
	ing := new(ingestStats)
	var wg sync.WaitGroup
	wg.Add(2)

	go func() { // queries, open loop on one connection
		defer wg.Done()
		outside := stats[len(windows)]
		free := start
		for i, body := range in.queries {
			due := start.Add(time.Duration(i) * in.period)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			k := which(due)
			cs, slice, rec := outside, -1, (*recorder)(nil)
			if k >= 0 {
				cs, slice, rec = stats[k], windows[k].slice(due), recs[k]
			}
			status, resp, took, err := s.query.post(rec, i, "window", "/v1/reachable", body)
			done := time.Now()
			sent := done.Add(-took)
			// The feed moves under the query, so the answer is checked for
			// form here and for truth after the stream has stopped.
			flags, _ := responseOutcome(status, resp, err)
			cs.record(slice, flags, done.Sub(due))
			if slice >= 0 && flags&opOK != 0 {
				if cs.firstDone.IsZero() {
					cs.firstDone = done
				}
				cs.lastDone = done
			}
			if slice >= 0 {
				// Lateness is the generator's own: from the moment the
				// request was due and the connection free, to the send.
				from := due
				if free.After(from) {
					from = free
				}
				cs.lateness.record(sent.Sub(from))
			}
			free = done
		}
	}()

	go func() { // the feed
		defer wg.Done()
		post := func(k int, rung string, body []byte, rec *recorder) (time.Duration, bool) {
			status, _, d, err := s.ingest.post(rec, k, rung, "/v1/ingest", body)
			ing.attempted++
			ok := err == nil && status == http.StatusOK
			if !ok {
				ing.failed++
			}
			return d, ok
		}
		for k, body := range in.instants {
			due := start.Add(time.Duration(k) * r.p.ingestEvery)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			var rec *recorder
			w := which(due)
			if w >= 0 {
				rec = recs[w]
			}
			if d, ok := post(k, "ingest.instant", body, rec); ok && w >= 0 {
				ing.posts.record(d)
			}
			if in.events[k] != nil {
				post(k, "ingest.events", in.events[k], rec)
			}
		}
	}()
	wg.Wait()
	return stats, ing
}

// checkQuiesced queries the stopped feed through the socket, bypassing the
// cache, and compares with the oracle over the engine's own snapshot: the
// hot templates at the final frontier plus liveFixed fresh queries.
func (r *run) checkQuiesced(s *liveSystem, in *liveInputs) {
	frontier := s.lv.engine().stats().NumTicks
	rng := r.rng(6)
	var qs []pointQuery
	for _, t := range in.hot {
		qs = append(qs, t.hotAt(frontier))
	}
	for _, t := range r.templates(rng, r.p.liveFixed, r.p.liveSpan) {
		qs = append(qs, t.before(frontier))
	}
	want := oraclePoints(s.lv.snapshot().oracle(), qs)
	var failed int64
	for i, body := range reachableBodies(qs, true) {
		if s.query.reachable(nil, i, "", body, want[i])&opOK == 0 {
			failed++
		}
	}
	r.res.count(int64(len(qs)), failed)
	r.res.Info["quiesced_checks"] = float64(len(qs))
	r.res.Info["final_ticks"] = float64(frontier)
}

func (r *run) runServeLive() error {
	warm := r.p.warmup
	spans := []time.Duration{r.window()}
	if r.trace {
		// An untraced window, then a traced one over the same stream: they
		// differ only in tracing, which gives its overhead.
		spans = []time.Duration{r.window() * 6 / 10, r.window() * 3 / 10}
	}
	var total time.Duration
	for _, d := range spans {
		total += d
	}
	in := r.liveInputs(warm + total)

	var s *liveSystem
	if !r.trace {
		inst, err := r.timedSetups(func() (*instance, error) {
			sys, err := r.setupLive(in)
			if err != nil {
				return nil, err
			}
			return &instance{close: sys.close, sys: sys}, nil
		})
		if err != nil {
			return err
		}
		defer inst.close()
		s = inst.sys.(*liveSystem)
	} else {
		t0 := time.Now()
		sys, err := r.setupLive(in)
		if err != nil {
			return err
		}
		s = sys
		defer s.close()
		var preload time.Duration
		for _, d := range s.preload {
			preload += d
		}
		r.layer("live.preload_s", preload.Seconds())
		r.layer("live.preload_instants_per_s", float64(len(s.preload))/max(preload.Seconds(), 1e-9))
		r.layer("live.ingest_instant_p50_us", quantileOfUS(s.preload, 0.5))
		r.res.Info["setup_s_traced"] = time.Since(t0).Seconds()
		if err := r.liveLadder(s, in); err != nil {
			return err
		}
	}

	runtime.GC()
	start := time.Now()
	windows := make([]window, len(spans))
	recs := make([]*recorder, len(spans))
	at := start.Add(warm)
	for k, d := range spans {
		windows[k] = window{start: at, end: at.Add(d)}
		at = at.Add(d)
	}
	if r.trace {
		recs[1] = r.rec
	}

	var before, after engineStats
	var cpu float64
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		time.Sleep(time.Until(windows[0].start))
		before = s.lv.engine().stats()
		cpu = windows[0].cpuOver()
		after = s.lv.engine().stats()
	}()
	stats, ing := r.liveStream(s, in, start, windows, recs)
	<-sampled

	w := new(windowStats)
	w.merge(stats[:1], spans[0].Seconds(), cpu)
	r.res.count(ing.attempted, ing.failed)
	for _, cs := range stats[1:] {
		r.res.count(cs.attempted, cs.failed)
	}
	stats = stats[:len(windows)]
	r.checkQuiesced(s, in)

	lateness := w.lateness.quantileUS(0.99)
	r.res.Info["lateness_p99_us"] = lateness
	if lateness > 2000 {
		r.res.Valid = false
	}
	if !r.trace {
		r.endToEndFrom(w)
		r.res.Info["ingest_p50_us"] = ing.posts.quantileUS(0.5)
		r.res.Info["seals"] = float64(after.Sealed - before.Sealed)
		return nil
	}

	r.res.count(w.attempted, w.failed)
	done := float64(w.all.n)
	r.layer("live.ingest_post_p50_us", ing.posts.quantileUS(0.5))
	r.layer("live.ingest_max_ms", float64(ing.posts.max)/1e6)
	r.layer("live.query_max_ms", float64(w.all.max)/1e6)
	r.layer("live.seals", float64(after.Sealed-before.Sealed))
	r.layer("live.compactions", float64(after.Compactions-before.Compactions))
	r.layer("live.late_events", float64(after.LateEvents-before.LateEvents))
	r.layer("serve.cache_hit_rate", float64(w.cached)/max(done, 1))
	r.layer("serve.shed_share", float64(w.shed)/max(done+float64(w.windowFailed), 1))
	r.layer("socket.ingest_body_kb", float64(len(in.instants[0]))/1024)
	r.layer("loadgen.lateness_p99_us", lateness)
	r.layer("loadgen.achieved_rps", median(w.sliceQPS()))
	traced := new(windowStats)
	traced.merge(stats[1:], spans[1].Seconds(), 0)
	r.layer("trace.overhead_pct", overheadPct(w, traced))
	return nil
}

// liveLadder: frozen segmented:reachgraph-mem on the snapshot →
// LiveEngine.Reachable → ServeHTTP → socket, on the freshly preloaded
// engine, then LiveEngine.Reachable again with late events pending.
func (r *run) liveLadder(s *liveSystem, in *liveInputs) error {
	p := r.p
	rng := r.rng(7)
	list := make([]pointQuery, p.ladderPoint)
	for i, t := range r.templates(rng, p.ladderPoint, p.liveSpan) {
		list[i] = t.before(p.livePreload)
	}
	snap := s.lv.snapshot()
	want := oraclePoints(snap.oracle(), list)
	r.layer("loadgen.positive_share", positiveShare(want))
	r.layer("contact.count", float64(snap.contacts()))

	frozen, err := openEngine("segmented:reachgraph-mem", snap.source(), 0, slabTicks)
	if err != nil {
		return err
	}
	frozenPass := r.pointPass("segmented:reachgraph-mem", "segmented", list, want, frozen.reach)
	r.layer("segmented.point_p50_us", frozenPass.p50())
	frozen = nil

	eng := s.lv.engine()
	// One unrecorded pass first, so that the live, handler and socket rungs
	// all see an engine in the same warm state; the rung below checks the
	// answers.
	for _, q := range list {
		eng.reach(r.ctx, q)
	}
	livePass := r.pointPass("LiveEngine", "live", list, want, eng.reach)
	r.layer("live.point_p50_us", livePass.p50())
	r.layer("live.delta_p50_us", pairedDeltaUS(frozenPass.durations, livePass.durations))

	bodies := reachableBodies(list, true)
	r.handlerPass(spanMiddleware(r.rec, s.srv), "ServeHTTP.miss", bodies, want)
	r.socketPass(s.query, "socket.miss", bodies, want)
	self := selfTimes(r.rec.spans)
	_, sockSelf := spanP50(r.rec.spans, self, "socket.miss", "socket")
	// No engine span nests here (serve needs the bare LiveEngine), so the
	// handler's own share is what its span adds, query by query, over the
	// in-process rung.
	var handler []time.Duration
	for i := range r.rec.spans {
		if s := &r.rec.spans[i]; s.Rung == "ServeHTTP.miss" && s.Layer == "serve" {
			handler = append(handler, s.duration())
		}
	}
	r.layer("serve.self_p50_us", pairedDeltaUS(livePass.durations, handler))
	r.layer("socket.self_p50_us", sockSelf)

	// Late contacts below the compaction threshold stay pending in the
	// delta logs of the last three sealed slabs.
	var late []contactEvent
	for len(late) < 96 {
		a, b := pairOf(rng, p.d1Objects)
		late = append(late, contactEvent{Tick: p.livePreload - 2 - rng.Intn(min(3*slabTicks, p.livePreload-1)-1), A: a, B: b})
	}
	if err := s.lv.ingest(late); err != nil {
		return fmt.Errorf("late events for the dirty rung: %w", err)
	}
	r.res.Info["dirty_delta_events"] = float64(eng.stats().DeltaEvents)
	dirty := list[:len(list)/4]
	dirtyPass := r.pointPass("LiveEngine.dirty", "live", dirty, oraclePoints(s.lv.snapshot().oracle(), dirty), eng.reach)
	r.layer("live.dirty_point_p50_us", dirtyPass.p50())
	return nil
}
