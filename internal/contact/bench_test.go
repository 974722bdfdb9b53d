package contact

import (
	"testing"

	"streach/internal/mobility"
)

// BenchmarkExtract is contact extraction alone on an RWP 400 × 1000
// dataset: the per-instant joins and the stitching of their pairs into
// contacts that every Open from trajectories pays. One op is one Extract.
func BenchmarkExtract(b *testing.B) {
	d := mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 400, NumTicks: 1000, Seed: 17})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(d)
	}
}
