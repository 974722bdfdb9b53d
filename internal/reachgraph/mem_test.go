package reachgraph

import (
	"testing"
	"unsafe"

	"streach/internal/dn"
)

// TestMemRecordsAliasGraph pins that the memory index keeps one copy of the
// graph, the graph: for every node, the record Mem hands the traversal has
// members, out and in edges and per-level long edges whose backing arrays
// are the graph's own, and no partition hints.
func TestMemRecordsAliasGraph(t *testing.T) {
	f := newFixture(t, 40, 300, 22)
	m, err := NewMem(f.g, []int{2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	sc := m.begin()
	defer m.pool.Put(sc)
	var ga graphAccess = &sc.mem
	longs := 0
	for id := range f.g.Nodes {
		id := dn.NodeID(id)
		nd := &f.g.Nodes[id]
		v, err := ga.vertex(id, -1)
		if err == nil {
			err = ga.need(v, secOut|secIn|secLongOut|secLongIn)
		}
		if err != nil {
			t.Fatal(err)
		}
		if v.id != id || v.start != nd.Start || v.end != nd.End {
			t.Fatalf("vertex %d: record of %d over [%d, %d], graph [%d, %d]", id, v.id, v.start, v.end, nd.Start, nd.End)
		}
		if len(v.members) != len(nd.Members) || unsafe.SliceData(v.members) != unsafe.SliceData(nd.Members) {
			t.Fatalf("vertex %d: members are not the graph's", id)
		}
		aliased := func(what string, got edgeList, want []dn.NodeID) {
			t.Helper()
			if len(got.parts) != 0 {
				t.Fatalf("vertex %d: %s edges carry %d partition hints", id, what, len(got.parts))
			}
			if len(got.nodes) != len(want) || len(want) > 0 && unsafe.SliceData(got.nodes) != unsafe.SliceData(want) {
				t.Fatalf("vertex %d: %s edges are not the graph's", id, what)
			}
		}
		aliased("out", v.out, nd.Out)
		aliased("in", v.in, nd.In)
		for _, dir := range []struct {
			what   string
			levels []levelEdges
			of     func(dn.NodeID, int) []dn.NodeID
		}{{"long-out", v.longOut, f.g.LongOut}, {"long-in", v.longIn, f.g.LongIn}} {
			i := 0
			for _, L := range m.resolutions {
				want := dir.of(id, L)
				if len(want) == 0 {
					continue
				}
				if i >= len(dir.levels) || dir.levels[i].level != L {
					t.Fatalf("vertex %d: %s level %d missing from the record", id, dir.what, L)
				}
				aliased(dir.what, dir.levels[i].edges, want)
				i++
				longs++
			}
			if i != len(dir.levels) {
				t.Fatalf("vertex %d: %s record has %d levels, the graph %d", id, dir.what, len(dir.levels), i)
			}
		}
	}
	if longs == 0 {
		t.Fatal("fixture has no long edges to check")
	}
}
