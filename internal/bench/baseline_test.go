package bench

import (
	"strings"
	"testing"
)

// TestBaselineCountsPinned holds the §6 baseline comparisons to exact
// numbers on a fixed small lab: every cell of fig13, spj, table5b and
// ablation-bidir is a page count or a ratio of page counts, so none may
// move. The goldens were recorded when the baselines (spj, grail and the
// reachgraph-bbfs/-ebfs/-edfs strategies) were still registry backends
// opened through streach.Open, and the ReachGraph cells re-recorded when
// run directories gained their anchors (layout version 3), which moves
// directory blobs across pages, and again when vertices were numbered
// partition by partition (layout version 4, a quarter to a third fewer
// pages); the lab's baseline adapter must reproduce them, cold pool and
// zeroed counters included.
func TestBaselineCountsPinned(t *testing.T) {
	l := NewLab(Options{
		RWPSizes: []int{150, 300},
		VNSizes:  []int{60, 120},
		Ticks:    500,
		Queries:  20,
		Seed:     1,
	})
	golden := map[string]string{
		"fig13":          "RWP300 13.6 14.3 20.7; VN120 1.4 1.4 2.3",
		"spj":            "RWP150 33 1.8 1.5 -17%; RWP300 47 2.7 2.6 -5%; VN120 33 1.5 1.4 -9%",
		"table5b":        "RWP300 28.8 13.6 53%; VN120 5.0 1.4 72%",
		"ablation-bidir": "RWP300 26.6 14.3 13.6; VN120 2.7 1.4 1.4",
	}
	for _, id := range []string{"fig13", "spj", "table5b", "ablation-bidir"} {
		var rows []string
		for _, row := range l.ByID(id)().Rows {
			rows = append(rows, strings.Join(row, " "))
		}
		if got := strings.Join(rows, "; "); got != golden[id] {
			t.Errorf("%s:\n got  %q\n want %q", id, got, golden[id])
		}
	}
}
