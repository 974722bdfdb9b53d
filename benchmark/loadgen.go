package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// numSlices is how many equal slices a measured window is cut into;
// throughput and the median latency are reported as the median over them.
const numSlices = 5

// opFlags is the outcome of one operation.
type opFlags uint8

const (
	opOK     opFlags = 1 << iota // completed with the right answer
	opCached                     // served from the result cache
	opShed                       // refused by admission control (429 or 503)
)

// clientStats is what one load-generating goroutine records. It is
// preallocated and owned by that goroutine until the window ends.
type clientStats struct {
	all          hist
	slices       [numSlices]hist
	attempted    int64 // every operation issued, warm-up included
	failed       int64 // errors, non-200, sheds, answers that differ from the oracle
	windowFailed int64 // the failures among operations attributed to the window
	cached, shed int64 // over the window
	lateness     hist  // open loop: how late the generator sent, once free to send
	// Open loop only: when the first and the last successful operation of
	// the window completed. A closed loop's rate is counted per slice; an
	// open loop's is fixed by its schedule, so what it reports is how many
	// completions fit between these two.
	firstDone, lastDone time.Time
}

// windowStats is the merged record of one measured window.
type windowStats struct {
	clientStats
	seconds    float64 // window length
	cpuSeconds float64 // process CPU (user+system) spent inside the window
}

func (w *windowStats) merge(cs []*clientStats, seconds, cpu float64) {
	for _, c := range cs {
		w.all.merge(&c.all)
		for i := range c.slices {
			w.slices[i].merge(&c.slices[i])
		}
		w.attempted += c.attempted
		w.failed += c.failed
		w.windowFailed += c.windowFailed
		w.cached += c.cached
		w.shed += c.shed
		w.lateness.merge(&c.lateness)
		if w.firstDone.IsZero() || (!c.firstDone.IsZero() && c.firstDone.Before(w.firstDone)) {
			w.firstDone = c.firstDone
		}
		if c.lastDone.After(w.lastDone) {
			w.lastDone = c.lastDone
		}
	}
	w.seconds, w.cpuSeconds = seconds, cpu
}

// record books one finished operation; slice is -1 outside the window.
func (cs *clientStats) record(slice int, flags opFlags, d time.Duration) {
	cs.attempted++
	ok := flags&opOK != 0
	if !ok {
		cs.failed++
	}
	if slice < 0 {
		return
	}
	if !ok {
		cs.windowFailed++
		if flags&opShed != 0 {
			cs.shed++
		}
		return
	}
	if flags&opCached != 0 {
		cs.cached++
	}
	cs.all.record(d)
	cs.slices[slice].record(d)
}

// sliceQPS and sliceP50 return the per-slice series.
func (w *windowStats) sliceQPS() []float64 {
	out := make([]float64, numSlices)
	for i := range w.slices {
		out[i] = float64(w.slices[i].n) / (w.seconds / numSlices)
	}
	return out
}

func (w *windowStats) sliceP50() []float64 {
	out := make([]float64, numSlices)
	for i := range w.slices {
		out[i] = w.slices[i].quantileUS(0.5)
	}
	return out
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window is the timing of one warm-up plus measured window.
type window struct {
	start, end time.Time // of the measured part
}

func newWindow(warmup, length time.Duration) window {
	s := time.Now().Add(warmup)
	return window{start: s, end: s.Add(length)}
}

// slice returns the slice index t falls into, or -1 outside the window.
func (w window) slice(t time.Time) int {
	if t.Before(w.start) || !t.Before(w.end) {
		return -1
	}
	i := int(int64(t.Sub(w.start)) * numSlices / int64(w.end.Sub(w.start)))
	return min(i, numSlices-1)
}

// cpuOver samples the process CPU clock at the window's two edges.
func (w window) cpuOver() float64 {
	time.Sleep(time.Until(w.start))
	c0 := cpuSeconds()
	time.Sleep(time.Until(w.end))
	return cpuSeconds() - c0
}

// runClosedLoop drives op from `clients` goroutines, each issuing its next
// operation as soon as the previous one completes, through a warm-up and a
// measured window. op reports how the operation ended. An operation is counted in the slice it completes in;
// only successful operations contribute latencies.
func runClosedLoop(clients int, warmup, length time.Duration, op func(client, seq int) opFlags) *windowStats {
	w := newWindow(warmup, length)
	stats := make([]*clientStats, clients)
	var wg sync.WaitGroup
	for c := range stats {
		stats[c] = new(clientStats)
		wg.Add(1)
		go func(c int, cs *clientStats) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				t0 := time.Now()
				if !t0.Before(w.end) {
					return
				}
				flags := op(c, seq)
				t1 := time.Now()
				cs.record(w.slice(t1), flags, t1.Sub(t0))
			}
		}(c, stats[c])
	}
	cpu := w.cpuOver()
	wg.Wait()
	out := new(windowStats)
	out.merge(stats, length.Seconds(), cpu)
	return out
}

// --- a small HTTP/1.1 client ---
//
// The load generator shares two cores with the server, so its own cost per
// request is kept low: requests are serialised before the window and the
// response is parsed in place, without net/http's client machinery.

type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (h *httpConn) close() { h.c.Close() }

// roundTrip writes req and reads one response. The returned body is valid
// until the next call.
func (h *httpConn) roundTrip(req []byte) (status int, body []byte, err error) {
	if err := h.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, fmt.Errorf("write request: %w", err)
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("read status line: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := -1, false
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("read header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("content length %q: %w", value, err)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		for {
			line, err = h.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, fmt.Errorf("read chunk size: %w", err)
			}
			size, perr := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if perr != nil {
				return 0, nil, fmt.Errorf("chunk size %q: %w", line, perr)
			}
			if err = h.readBody(int(size) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			h.body = h.body[:len(h.body)-2]
			if size == 0 {
				break
			}
		}
	case length >= 0:
		if err = h.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("response has neither a content length nor chunks")
	}
	return status, h.body, nil
}

func (h *httpConn) readBody(n int) error {
	start := len(h.body)
	if cap(h.body) < start+n {
		h.body = append(make([]byte, 0, 2*(start+n)), h.body...)
	}
	h.body = h.body[:start+n]
	if _, err := io.ReadFull(h.br, h.body[start:]); err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	return nil
}

// jsonBool finds a top-level boolean member by name without decoding the
// document; ok is false when it is absent or not a boolean.
func jsonBool(doc []byte, name string) (value, ok bool) {
	key := []byte(`"` + name + `"`)
	i := bytes.Index(doc, key)
	if i < 0 {
		return false, false
	}
	rest := bytes.TrimLeft(doc[i+len(key):], " \t\r\n")
	if len(rest) == 0 || rest[0] != ':' {
		return false, false
	}
	rest = bytes.TrimLeft(rest[1:], " \t\r\n")
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		return false, true
	}
	return false, false
}

func reachableBody(q pointQuery, noCache bool) []byte {
	s := fmt.Sprintf(`{"src":%d,"dst":%d,"from":%d,"to":%d`, q.Src, q.Dst, q.Lo, q.Hi)
	if noCache {
		s += `,"no_cache":true`
	}
	return []byte(s + "}")
}

// --- in-process handler calls ---

// memWriter is a reusable http.ResponseWriter for calling a handler without
// a socket.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func newMemWriter() *memWriter { return &memWriter{header: make(http.Header)} }

func (m *memWriter) reset() {
	clear(m.header)
	m.body.Reset()
	m.status = 0
}

func (m *memWriter) Header() http.Header { return m.header }
func (m *memWriter) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}
func (m *memWriter) Write(b []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.body.Write(b)
}

// spanHeader carries a span reference from the benchmark's client to its
// server-side middleware.
const spanHeader = "X-Bench-Span"

// appendSpanRef writes a span reference as "id,op,rung".
func appendSpanRef(dst []byte, ref spanRef) []byte {
	dst = strconv.AppendInt(dst, int64(ref.id), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(ref.op), 10)
	dst = append(dst, ',')
	return append(dst, ref.rung...)
}

func parseSpanRef(s string) (spanRef, bool) {
	var ref spanRef
	if n, err := fmt.Sscanf(s, "%d,%d,%s", &ref.id, &ref.op, &ref.rung); err != nil || n != 3 {
		return spanRef{}, false
	}
	return ref, true
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// spanMiddleware is the benchmark-owned handler wrapper: a request that
// names a parent span gets a "serve" span around the wrapped handler, and
// the span's reference rides the request context to tracedEngine.
func spanMiddleware(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseSpanRef(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		id := rec.begin(parent.id, parent.op, "serve", parent.rung)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(withSpanRef(r.Context(), spanRef{id: id, op: parent.op, rung: parent.rung})))
		rec.end(id, counts{Status: sw.status})
	})
}
