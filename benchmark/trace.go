package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// counts are the work counters recorded at a span's boundary, so that
// ratios are measured where the work happens.
type counts struct {
	Expanded    int   `json:"expanded"`
	RandomReads int64 `json:"random_reads"`
	SeqReads    int64 `json:"seq_reads"`
	BufferHits  int64 `json:"buffer_hits"`
	Answer      int   `json:"answer"` // 0/1 for a point query, set size for a set query
	Status      int   `json:"status"` // HTTP status on serve/socket spans, 0 in process
}

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one operation share Op; Parent is the id of the
// span that caused this one, -1 for the outermost.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Layer    string `json:"layer"`
	Rung     string `json:"rung"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Counts   counts `json:"counts"`
}

func (s *span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, which is how the untraced twin of a pass runs.
type recorder struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
}

func newRecorder(workload string, capacity int) *recorder {
	return &recorder{workload: workload, epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (-1 from a nil recorder).
func (r *recorder) begin(parent, op int, layer, rung string) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Workload: r.workload, Op: op,
		Layer: layer, Rung: rung, StartNS: now, EndNS: now,
	})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int, c counts) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.spans[id].Counts = c
	r.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, cursor := int64(0), p.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, cursor), min(spans[k].EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = time.Duration(p.EndNS - p.StartNS - covered)
	}
	return self
}

// checkSpans reports the first structural defect of a span list: an id out
// of order, a parent that is not an earlier span of the same workload, an
// end before a start, or a negative self time.
func checkSpans(spans []span) error {
	self := selfTimes(spans)
	for i, s := range spans {
		switch {
		case s.ID != i:
			return fmt.Errorf("span %d carries id %d", i, s.ID)
		case s.Parent < -1 || s.Parent >= i:
			return fmt.Errorf("span %d has parent %d", i, s.Parent)
		case s.Parent >= 0 && spans[s.Parent].Workload != s.Workload:
			return fmt.Errorf("span %d and its parent are of different workloads", i)
		case s.EndNS < s.StartNS:
			return fmt.Errorf("span %d ends before it starts", i)
		case self[i] < 0:
			return fmt.Errorf("span %d has negative self time %v", i, self[i])
		}
	}
	return nil
}

// traceHeader is the first line of a span file: where and with what seed
// the spans were recorded.
type traceHeader struct {
	Env      envBlock `json:"env"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Spans    int      `json:"spans"`
}

// writeSpans writes one JSON object per line: the header, then the spans.
func writeSpans(path string, header traceHeader, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header.Spans = len(spans)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
