package bench

import (
	"strings"
	"testing"
)

// tinyLab keeps experiment smoke tests fast.
func tinyLab() *Lab {
	return NewLab(Options{
		RWPSizes:    []int{20, 25, 30},
		VNSizes:     []int{10, 15, 20},
		Ticks:       200,
		Queries:     4,
		Seed:        1,
		TaxiObjects: 15,
		TaxiMinutes: 20,
	})
}

func TestIDsAllResolvable(t *testing.T) {
	l := tinyLab()
	for _, id := range IDs() {
		if l.ByID(id) == nil {
			t.Errorf("IDs lists %q but ByID cannot resolve it", id)
		}
	}
	if l.ByID("nope") != nil {
		t.Error("ByID resolved an unknown id")
	}
	if l.ByID("FIG13") == nil {
		t.Error("ByID should be case-insensitive")
	}
}

// TestEveryExperimentProducesRows smoke-runs the whole suite at tiny scale:
// every runner must return a table with at least one row and matching
// column widths.
func TestEveryExperimentProducesRows(t *testing.T) {
	l := tinyLab()
	for _, tbl := range l.All() {
		if tbl.ID == "" || tbl.Title == "" {
			t.Errorf("table %+v missing identity", tbl)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.ID)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s: row %v has %d cells, want %d", tbl.ID, row, len(row), len(tbl.Columns))
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"A", "Blong"},
	}
	tbl.AddRow("aa", "b")
	tbl.AddNote("hello %d", 7)
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x — demo ==", "A   Blong", "aa  b", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestLabCaching(t *testing.T) {
	l := tinyLab()
	if l.RWP(20) != l.RWP(20) {
		t.Error("dataset not cached")
	}
	d := l.RWP(20)
	if l.Contacts(d) != l.Contacts(d) {
		t.Error("contacts not cached")
	}
	if l.Graph(d) != l.Graph(d) {
		t.Error("graph not cached")
	}
}

func TestWavefrontTicksSanity(t *testing.T) {
	l := tinyLab()
	rwp := l.RWP(30)
	w := WavefrontTicks(rwp)
	if w < 30 || w > rwp.NumTicks()/2 {
		t.Fatalf("WavefrontTicks(RWP) = %d outside [30, %d]", w, rwp.NumTicks()/2)
	}
	vn := l.VN(20)
	wv := WavefrontTicks(vn)
	if wv < 30 || wv > vn.NumTicks()/2 {
		t.Fatalf("WavefrontTicks(VN) = %d outside [30, %d]", wv, vn.NumTicks()/2)
	}
	// Vehicles move faster, so the same-side environment needs fewer ticks;
	// both must stay within the clamps checked above.
	if meanStep(vn) <= meanStep(rwp) {
		t.Fatalf("mean step: VN %.1f should exceed RWP %.1f", meanStep(vn), meanStep(rwp))
	}
}

func TestPrefixDataset(t *testing.T) {
	l := tinyLab()
	d := l.RWP(20)
	sub := prefixDataset(d, 50)
	if sub.NumTicks() != 50 || sub.NumObjects() != d.NumObjects() {
		t.Fatalf("prefix shape: %d ticks × %d objects", sub.NumTicks(), sub.NumObjects())
	}
	if full := prefixDataset(d, d.NumTicks()+10); full != d {
		t.Error("prefix beyond domain should return the original dataset")
	}
}
