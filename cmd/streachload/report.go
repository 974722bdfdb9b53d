package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// schemaVersion tags every report this command writes.
const schemaVersion = "streachload/v1"

// record is one swept point: the served backend under cfg.clients workers.
type record struct {
	Experiment    string  `json:"experiment"` // always "serving"
	Backend       string  `json:"backend"`
	Dataset       string  `json:"dataset"`
	Workers       int     `json:"workers"`
	Queries       int     `json:"queries"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P95LatencyUS  float64 `json:"p95_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	// CacheHitRate is the server's result-cache hit rate at the end of the
	// point; SpeedupVs1Worker the point's throughput over that of the
	// smallest client count swept.
	CacheHitRate     float64 `json:"cache_hit_rate"`
	SpeedupVs1Worker float64 `json:"speedup_vs_1_worker"`
	// Ingest running beside the queries (-ingest-qps, -late-frac).
	AppendsPerSec  float64 `json:"appends_per_sec,omitempty"`
	SealedSegments int     `json:"sealed_segments,omitempty"`
	LateRate       float64 `json:"late_rate,omitempty"`
	LateEvents     int64   `json:"late_events,omitempty"`
	// What the queries asked (the planner direction the served backend's
	// name implies, -min-duration, -prob, -prob-threshold) and what a fresh
	// evaluation cost the server.
	Strategy         string  `json:"strategy,omitempty"`
	ExpandedPerQuery float64 `json:"expanded_per_query,omitempty"`
	Filtered         bool    `json:"filtered,omitempty"`
	MinDuration      int     `json:"min_duration,omitempty"`
	Prob             float64 `json:"prob,omitempty"`
	ProbThreshold    float64 `json:"prob_threshold,omitempty"`
	// The served engine's cut, when it is sharded.
	Shards          int     `json:"shards,omitempty"`
	Partitioner     string  `json:"partitioner,omitempty"`
	CrossShardRatio float64 `json:"cross_shard_ratio,omitempty"`
}

// writeReport writes recs to path as an indented document stamped with
// the schema and the environment that produced it.
func writeReport(path string, recs []record) error {
	doc, err := json.MarshalIndent(struct {
		Schema      string   `json:"schema"`
		GeneratedAt string   `json:"generated_at"`
		GoVersion   string   `json:"go_version"`
		GOMAXPROCS  int      `json:"gomaxprocs"`
		Records     []record `json:"records"`
	}{schemaVersion, time.Now().UTC().Format(time.RFC3339), runtime.Version(), runtime.GOMAXPROCS(0), recs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}
