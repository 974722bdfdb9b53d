package grail

import (
	"context"
	"testing"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/mobility"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

func buildGraph(t testing.TB, objects, ticks int, seed int64) (*dn.Graph, *queries.Oracle, *trajectory.Dataset) {
	t.Helper()
	d := mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: objects, NumTicks: ticks, Seed: seed})
	net := contact.Extract(d)
	g := dn.Build(net)
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	return g, queries.NewOracle(net), d
}

// memReach and diskReach are the point query on either engine.
func memReach(m *Mem, q queries.Query) (bool, error) {
	ok, _, err := m.ReachCounted(context.Background(), q)
	return ok, err
}

func diskReach(dk *Disk, q queries.Query) (bool, error) {
	ok, _, err := dk.ReachCounted(context.Background(), q, nil)
	return ok, err
}

func TestLabelsValidate(t *testing.T) {
	g, _, _ := buildGraph(t, 40, 300, 31)
	for _, d := range []int{1, 2, 5} {
		labels, err := BuildLabels(g, d, 42)
		if err != nil {
			t.Fatal(err)
		}
		if err := labels.Validate(g); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}

func TestBuildLabelsRejectsZeroPasses(t *testing.T) {
	g, _, _ := buildGraph(t, 5, 20, 31)
	if _, err := BuildLabels(g, 0, 1); err == nil {
		t.Fatal("d=0: want error")
	}
}

// TestContainmentSound verifies the GRAIL soundness direction: if u reaches
// v in the DAG, every label of u contains the label of v. (Checked
// transitively, not just across single edges.)
func TestContainmentSound(t *testing.T) {
	g, _, _ := buildGraph(t, 25, 150, 32)
	labels, err := BuildLabels(g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Transitive closure over the DAG in reverse topological order.
	n := len(g.Nodes)
	reach := make([]map[dn.NodeID]bool, n)
	for id := n - 1; id >= 0; id-- {
		r := map[dn.NodeID]bool{}
		for _, c := range g.Out(dn.NodeID(id)) {
			r[c] = true
			for w := range reach[c] {
				r[w] = true
			}
		}
		reach[id] = r
	}
	for u := 0; u < n; u++ {
		for v := range reach[u] {
			if !labels.MayReach(dn.NodeID(u), v) {
				t.Fatalf("u=%d reaches v=%d but labels deny it", u, v)
			}
		}
	}
}

func TestMemMatchesOracle(t *testing.T) {
	g, oracle, d := buildGraph(t, 50, 350, 33)
	m, err := NewMem(g, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(), NumTicks: d.NumTicks(),
		Count: 120, MinLen: 10, MaxLen: 250, Seed: 13,
	})
	var pos int
	for _, q := range work {
		want := oracle.Reachable(q)
		got, err := memReach(m, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: GRAIL %v, oracle %v", q, got, want)
		}
		if want {
			pos++
		}
	}
	if pos == 0 || pos == len(work) {
		t.Fatalf("degenerate workload: %d/%d positive", pos, len(work))
	}
}

func TestDiskMatchesMem(t *testing.T) {
	g, _, d := buildGraph(t, 40, 250, 34)
	m, err := NewMem(g, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := NewDisk(g, 2, 17, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(), NumTicks: d.NumTicks(),
		Count: 80, MinLen: 10, MaxLen: 180, Seed: 19,
	})
	for _, q := range work {
		a, err := memReach(m, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := diskReach(dk, q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%v: mem %v, disk %v", q, a, b)
		}
	}
	if dk.Counters().RandomReads == 0 {
		t.Error("disk engine reported no random reads")
	}
}

func TestDiskDegenerates(t *testing.T) {
	g, _, _ := buildGraph(t, 10, 60, 35)
	dk, err := NewDisk(g, 2, 1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := diskReach(dk, queries.Query{Src: -2, Dst: 1, Interval: contact.Interval{Lo: 0, Hi: 5}}); err == nil {
		t.Error("bad source: want error")
	}
	got, err := diskReach(dk, queries.Query{Src: 1, Dst: 1, Interval: contact.Interval{Lo: 0, Hi: 5}})
	if err != nil || !got {
		t.Errorf("self query: got (%v, %v)", got, err)
	}
	got, err = diskReach(dk, queries.Query{Src: 0, Dst: 1, Interval: contact.Interval{Lo: 7, Hi: 3}})
	if err != nil || got {
		t.Errorf("empty interval: got (%v, %v)", got, err)
	}
}

func TestNewDiskEmptyGraph(t *testing.T) {
	if _, err := NewDisk(&dn.Graph{}, 2, 1, 8, nil); err == nil {
		t.Fatal("empty graph: want error")
	}
}
