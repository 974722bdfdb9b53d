package reachgraph

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/mobility"
	"streach/internal/pagefile"
)

// TestBuildIndependentOfWorkers holds Build to one index — the same blobs
// at the same references — whatever the number of workers encoding its
// blocks of partitions and run directories, over random-waypoint and
// clustered graphs of several blocks of each kind and a graph of fewer
// partitions than workers. NewMem, whose only build work is augmentation,
// is held to one graph across GOMAXPROCS settings: the worker count its
// kernel reads.
func TestBuildIndependentOfWorkers(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *contact.Network
		big  bool // several blocks of partitions and of directories
	}{
		{"rwp", contact.Extract(mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 3 * dirGrain, NumTicks: 160, Seed: 21})), true},
		{"clustered", contact.Extract(mobility.Clustered(mobility.ClusteredConfig{NumObjects: 2*dirGrain + 9, NumTicks: 240, Seed: 22})), true},
		{"few-partitions", contact.Extract(mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 3, NumTicks: 5, Seed: 23})), false},
	} {
		g := dn.Build(c.net)
		want, err := build(g, Params{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.big && (len(g.Nodes) < 2*encodeGrain || g.NumObjects < 2*dirGrain) {
			t.Fatalf("%s: %d nodes and %d objects make too few blocks", c.name, len(g.Nodes), g.NumObjects)
		}
		if !c.big && want.NumPartitions() >= 8 {
			t.Fatalf("%s: %d partitions, want fewer than the most workers", c.name, want.NumPartitions())
		}
		for _, w := range []int{2, 3, 8} {
			got, err := build(g, Params{}, w)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.partRefs, want.partRefs) || !slices.Equal(got.dirRefs, want.dirRefs) ||
				got.store.NumPages() != want.store.NumPages() {
				t.Fatalf("%s: %d workers place blobs elsewhere than 1", c.name, w)
			}
			for _, refs := range [][]pagefile.BlobRef{want.partRefs, want.dirRefs} {
				for _, ref := range refs {
					a, errA := pagefile.Whole(got.store.ReadBlob(ref, nil))
					b, errB := pagefile.Whole(want.store.ReadBlob(ref, nil))
					if errA != nil || errB != nil || !bytes.Equal(a, b) {
						t.Fatalf("%s: %d workers write another blob at %+v than 1 (%v, %v)", c.name, w, ref, errA, errB)
					}
				}
			}
		}

		mems := make([]*Mem, 0, 4)
		for _, w := range []int{1, 2, 3, 8} {
			prev := runtime.GOMAXPROCS(w)
			m, err := NewMem(dn.Build(c.net), []int{2, 4, 8, 16, 32})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			mems = append(mems, m)
		}
		for i, m := range mems[1:] {
			if !reflect.DeepEqual(m.g, mems[0].g) {
				t.Errorf("%s: NewMem at GOMAXPROCS %d holds another graph than at 1", c.name, []int{2, 3, 8}[i])
			}
		}
	}
}
