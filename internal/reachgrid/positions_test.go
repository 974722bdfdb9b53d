package reachgrid

import (
	"math"
	"testing"

	"streach/internal/geo"
	"streach/internal/pagefile"
)

// roundTripPositions encodes pos under the linear predictor and decodes it
// back as loadCell does, failing on a decode error or unread bytes.
func roundTripPositions(t *testing.T, pos []geo.Point) (got []geo.Point, encoded int) {
	t.Helper()
	enc := pagefile.NewEncoder(64)
	encodePositions(enc, pos)
	dec := pagefile.NewDecoder(enc.Bytes())
	got = make([]geo.Point, len(pos))
	decodePositions(dec, got, make([]uint64, 2*max(len(pos)-1, 0)))
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("decode left %d of %d bytes", dec.Remaining(), enc.Len())
	}
	return got, enc.Len()
}

// TestPositionsRoundTrip: whatever the samples — zeros, signs, extreme
// magnitudes, infinities, which make the prediction itself NaN — the
// decode gives back every coordinate bit for bit, at every run length.
func TestPositionsRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 3.14159, 1e-300, 1e300, math.Inf(1), math.Inf(-1)}
	pos := make([]geo.Point, len(vals))
	for k, v := range vals {
		pos[k] = geo.Point{X: v, Y: vals[len(vals)-1-k]}
	}
	for n := 0; n <= len(pos); n++ {
		got, _ := roundTripPositions(t, pos[:n])
		for k := range got {
			if math.Float64bits(got[k].X) != math.Float64bits(pos[k].X) || math.Float64bits(got[k].Y) != math.Float64bits(pos[k].Y) {
				t.Fatalf("%d samples: sample %d = %v, want %v", n, k, got[k], pos[k])
			}
		}
	}
}

// TestPositionsLinearPredictor pins the compression property the cell
// layout relies on: samples along a line under the 2*b-a extrapolation
// predictor encode in a few bytes each, and reconstruction is bit-exact.
func TestPositionsLinearPredictor(t *testing.T) {
	pos := make([]geo.Point, 64)
	for i := range pos {
		pos[i] = geo.Point{X: 5000.0 + 12.5*float64(i), Y: -300 - 7.25*float64(i)}
	}
	got, n := roundTripPositions(t, pos)
	if n > 2*(8+len(pos)*3) {
		t.Fatalf("linear trajectory took %d bytes for %d points", n, len(pos))
	}
	for i := range pos {
		if got[i] != pos[i] {
			t.Fatalf("point %d: got %v, want %v", i, got[i], pos[i])
		}
	}
}
