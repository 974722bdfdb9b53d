package reachgraph

import (
	"context"
	"slices"
	"testing"

	"streach/internal/pagefile"
	"streach/internal/queries"
)

// TestPageFormatsAgree builds the index in both on-page formats and checks
// that every strategy answers identically (and matches the oracle) on both,
// for point and multi-source set queries alike — the layer-level half of
// the cross-backend dual-format conformance.
func TestPageFormatsAgree(t *testing.T) {
	f := newFixture(t, 40, 300, 91)
	fixed, err := Build(f.g, Params{Format: pagefile.FormatFixed})
	if err != nil {
		t.Fatal(err)
	}
	varint, err := Build(f.g, Params{Format: pagefile.FormatVarint})
	if err != nil {
		t.Fatal(err)
	}
	if got := fixed.Format(); got != pagefile.FormatFixed {
		t.Fatalf("fixed index reports format %v", got)
	}
	if got := varint.Format(); got != pagefile.FormatVarint {
		t.Fatalf("varint index reports format %v", got)
	}

	work := f.workload(80, 10, 200, 17)
	for _, q := range work {
		want := f.oracle.Reachable(q)
		for _, s := range []Strategy{BMBFS, BBFS, EBFS, EDFS} {
			gotFixed, err := fixed.ReachStrategy(q, s)
			if err != nil {
				t.Fatalf("fixed %v %v: %v", s, q, err)
			}
			gotVarint, err := varint.ReachStrategy(q, s)
			if err != nil {
				t.Fatalf("varint %v %v: %v", s, q, err)
			}
			if gotFixed != want || gotVarint != want {
				t.Fatalf("%v %v: fixed=%v varint=%v oracle=%v", s, q, gotFixed, gotVarint, want)
			}
		}
	}

	ctx := context.Background()
	for _, q := range work[:20] {
		seeds := seedsOf(q.Src, q.Dst)
		for _, dir := range []queries.Direction{queries.Forward, queries.Backward} {
			a, _, err := fixed.AppendProfile(ctx, nil, seeds, q.Interval, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := varint.AppendProfile(ctx, nil, seeds, q.Interval, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a, b) {
				t.Fatalf("profiles of %v over %v (direction %d) differ: fixed %v, varint %v", seeds, q.Interval, dir, a, b)
			}
		}
	}
}

// TestVarintFormatShrinksIndex pins the compression claim: the varint-delta
// layout must occupy meaningfully fewer pages than the fixed-width one.
func TestVarintFormatShrinksIndex(t *testing.T) {
	f := newFixture(t, 60, 500, 33)
	fixed, err := Build(f.g, Params{Format: pagefile.FormatFixed})
	if err != nil {
		t.Fatal(err)
	}
	varint, err := Build(f.g, Params{Format: pagefile.FormatVarint})
	if err != nil {
		t.Fatal(err)
	}
	fp, vp := fixed.Store().NumPages(), varint.Store().NumPages()
	if vp*4 > fp*3 { // require ≥ 25% fewer pages
		t.Fatalf("varint layout saved too little: %d pages vs %d fixed", vp, fp)
	}
	t.Logf("pages: fixed %d, varint %d (%.0f%%)", fp, vp, 100*float64(vp)/float64(fp))
}
