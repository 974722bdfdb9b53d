package reachgrid

import (
	"context"
	"testing"

	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// TestPageFormatsAgree builds the grid in both on-page formats and checks
// guided expansion, SPJ and the set primitive answer identically — the
// layer-level half of the cross-backend dual-format conformance. Position
// reconstruction under the prediction-XOR codec must be bit-exact, so the
// two indexes are interchangeable to the instant.
func TestPageFormatsAgree(t *testing.T) {
	d := testDataset(t, 40, 300, 71)
	fixed := buildIndex(t, d, Params{Format: pagefile.FormatFixed})
	varint := buildIndex(t, d, Params{Format: pagefile.FormatVarint})
	if fixed.Format() != pagefile.FormatFixed || varint.Format() != pagefile.FormatVarint {
		t.Fatalf("formats not preserved: %v, %v", fixed.Format(), varint.Format())
	}

	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(), NumTicks: d.NumTicks(),
		Count: 60, MinLen: 10, MaxLen: 200, Seed: 13,
	})
	for _, q := range work {
		a, err := fixed.Reach(q)
		if err != nil {
			t.Fatalf("fixed %v: %v", q, err)
		}
		b, err := varint.Reach(q)
		if err != nil {
			t.Fatalf("varint %v: %v", q, err)
		}
		if a != b {
			t.Fatalf("%v: fixed=%v varint=%v", q, a, b)
		}
		an, err := fixed.SPJReach(q)
		if err != nil {
			t.Fatalf("fixed spj %v: %v", q, err)
		}
		bn, err := varint.SPJReach(q)
		if err != nil {
			t.Fatalf("varint spj %v: %v", q, err)
		}
		if an != a || bn != b {
			t.Fatalf("%v: spj disagrees (fixed %v/%v, varint %v/%v)", q, a, an, b, bn)
		}
	}

	ctx := context.Background()
	for src := trajectory.ObjectID(0); src < 10; src++ {
		iv := work[src].Interval
		a, err := reachableSetFrom(ctx, fixed, []trajectory.ObjectID{src}, iv)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reachableSetFrom(ctx, varint, []trajectory.ObjectID{src}, iv)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("src %d: set sizes differ (%d vs %d)", src, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("src %d: sets differ at %d (%v vs %v)", src, i, a[i], b[i])
			}
		}
	}
}

// TestVarintFormatShrinksIndex pins the compression claim for the grid:
// the prediction-XOR position codec plus delta postings must cut the page
// footprint by at least a quarter.
func TestVarintFormatShrinksIndex(t *testing.T) {
	d := testDataset(t, 60, 400, 29)
	fixed := buildIndex(t, d, Params{Format: pagefile.FormatFixed})
	varint := buildIndex(t, d, Params{Format: pagefile.FormatVarint})
	fp, vp := fixed.Store().NumPages(), varint.Store().NumPages()
	if vp*4 > fp*3 {
		t.Fatalf("varint layout saved too little: %d pages vs %d fixed", vp, fp)
	}
	t.Logf("pages: fixed %d, varint %d (%.0f%%)", fp, vp, 100*float64(vp)/float64(fp))
}
