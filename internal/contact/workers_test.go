package contact

import (
	"reflect"
	"testing"

	"streach/internal/geo"
	"streach/internal/mobility"
	"streach/internal/trajectory"
)

// buildWorkers are the worker counts every parallel build kernel is run at
// and compared across: inline, the fan-outs of small hosts, and more
// workers than most inputs have blocks.
var buildWorkers = []int{1, 2, 3, 8}

// TestBuildIndependentOfWorkers holds Extract to one network, pairsPerTick
// and Weights included, whatever the number of workers joining its blocks
// of ticks: over random-waypoint and clustered datasets, one with fewer
// blocks than workers, one with fewer ticks than workers, and one whose
// objects are absent or apart at some ticks.
func TestBuildIndependentOfWorkers(t *testing.T) {
	for _, c := range []struct {
		name string
		d    *trajectory.Dataset
	}{
		{"rwp", mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 120, NumTicks: 20*extractGrain + 7, Seed: 3})},
		{"clustered", mobility.Clustered(mobility.ClusteredConfig{NumObjects: 150, NumTicks: 12 * extractGrain, NumClusters: 5, Seed: 4})},
		{"fewer-blocks", mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 60, NumTicks: 5*extractGrain/2 + 1, Seed: 5})},
		{"fewer-ticks", mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 40, NumTicks: 3, Seed: 6})},
		{"empty-ticks", sparseDataset(3 * extractGrain)},
	} {
		want := extract(c.d, 1)
		if want.ContactInstants() == 0 {
			t.Fatalf("%s: no contacts; the case compares nothing", c.name)
		}
		for _, w := range buildWorkers[1:] {
			if got := extract(c.d, w); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d workers extract another network than 1 (%d against %d contacts)",
					c.name, w, len(got.Contacts), len(want.Contacts))
			}
		}
	}
}

// sparseDataset has empty ticks: object 1 walks to and fro all the time,
// object 2 stands on its path in the middle third and object 0 from half
// way on, so before the middle third no pair is present, and after it
// object 1 is apart from the others at most ticks.
func sparseDataset(ticks int) *trajectory.Dataset {
	walk := make([]geo.Point, ticks)
	for i := range walk {
		walk[i] = geo.Point{X: float64(i % 40), Y: 0}
	}
	still := func(n int) []geo.Point {
		ps := make([]geo.Point, n)
		for i := range ps {
			ps[i] = geo.Point{X: 20, Y: 1}
		}
		return ps
	}
	return &trajectory.Dataset{
		Name:        "sparse",
		Env:         geo.NewRect(geo.Point{X: 0, Y: -10}, geo.Point{X: 100, Y: 10}),
		TickSeconds: 1,
		ContactDist: 3,
		Trajs: []trajectory.Trajectory{
			{Object: 0, Start: trajectory.Tick(ticks / 2), Pos: still(ticks - ticks/2)},
			{Object: 1, Pos: walk},
			{Object: 2, Start: trajectory.Tick(ticks / 3), Pos: still(ticks / 3)},
		},
	}
}
