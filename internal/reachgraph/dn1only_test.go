package reachgraph

import "testing"

// TestDN1OnlyIndex pins the empty-Resolutions semantics: no long edges,
// still correct.
func TestDN1OnlyIndex(t *testing.T) {
	f := newFixture(t, 30, 200, 71)
	ix, err := Build(f.g, Params{Resolutions: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range f.workload(60, 10, 150, 73) {
		want := f.oracle.Reachable(q)
		got, err := diskReach(ix, q, BMBFS)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: got %v, want %v", q, got, want)
		}
	}
}
