package reachgraph

import (
	"testing"

	"streach/internal/dn"
	"streach/internal/pagefile"
)

// FuzzPartitionBlob feeds arbitrary bytes to the disk read path as a
// partition blob, under a catalogue that gives it the vertices [lo, lo+n)
// of an index whose other two ranges, below and above, hold the same
// bytes. The bytes go through AppendBlob, so their checksum is valid and
// everything behind it has to hold on its own: buffering the partition,
// looking up its records by position and vertices by ID (the partition's
// own and an arbitrary one), and decoding every section of whatever is
// found, in an order the input picks, may return errors and nothing else —
// no panic, no record reaching past the blob into its extent neighbour, no
// slab growing past what the blob's size can account for. The seeds are
// real layout-4 partitions under their own ranges — a mobility fixture's,
// and the toggle graph's at depth 9, whose sizes sit around an anchor
// boundary (1, 15, 16 and 17 records) — the latter again under a range one
// short, one over and one group over, and one partition under the version
// byte of the layout this one replaced, which the header refuses.
func FuzzPartitionBlob(f *testing.F) {
	fx, toggle := newFixture(f, 12, 60, 5), toggleGraph()
	numNodes, numObjects := max(len(fx.g.Nodes), len(toggle.Nodes)), max(fx.g.NumObjects, toggle.NumObjects)
	for _, seed := range []struct {
		g     *dn.Graph
		depth int
	}{{fx.g, 32}, {toggle, 9}} {
		ix, err := Build(seed.g, Params{PartitionDepth: seed.depth})
		if err != nil {
			f.Fatal(err)
		}
		for p, ref := range ix.partRefs {
			blob, err := pagefile.Whole(ix.store.ReadBlob(ref, nil))
			if err != nil {
				f.Fatal(err)
			}
			lo, n := uint32(ix.first[p]), uint32(ix.first[p+1]-ix.first[p])
			f.Add(blob, lo, n, uint32(0))
			if seed.g == toggle && n >= anchorStride-1 && n <= anchorStride+1 {
				for _, wrong := range []uint32{n - 1, n + 1, n + anchorStride} {
					f.Add(blob, lo, wrong, uint32(n))
				}
			}
		}
	}
	f.Add(oldVersionPartition(f, fx.g), uint32(0), uint32(1), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, lo, n, pick uint32) {
		lo %= uint32(numNodes)
		n = min(n, uint32(numNodes)-lo)
		ix := blobIndex([]int32{0, int32(lo), int32(lo + n), int32(numNodes)}, numObjects, data, data, data)
		blob, err := pagefile.Whole(ix.store.ReadBlob(ix.partRefs[1], nil))
		if err != nil {
			t.Fatal(err)
		}
		sc := ix.begin(nil)
		defer ix.pool.Put(sc)
		c := &sc.cur
		if c.loadPartition(1) != nil {
			return
		}
		// Vertices to ask for: pick, and the partition's first 64.
		ids := []dn.NodeID{dn.NodeID(pick % uint32(numNodes))}
		for k := uint32(0); k < min(n, 64); k++ {
			if rec, _, err := c.parts[1].find(int32(k), &c.checked); err == nil && !withinBlob(blob, rec) {
				t.Fatalf("record %d: %d bytes run past the %d-byte blob", k, len(rec), len(blob))
			}
			ids = append(ids, dn.NodeID(lo+k))
		}
		for i, id := range ids {
			v, err := c.vertex(id)
			if err != nil {
				continue
			}
			if v.id != id {
				t.Fatalf("asked for vertex %d, got %d", id, v.id)
			}
			for k := 0; k < numSections; k++ {
				s := (k + i + int(pick)) % numSections
				w, err := c.need(v, 1<<s)
				if err != nil {
					break
				}
				v = w
			}
			for _, m := range v.members {
				if m < 0 || int(m) >= numObjects {
					t.Fatalf("vertex %d: member %d outside [0, %d)", id, m, numObjects)
				}
			}
			for _, es := range [][]dn.NodeID{v.out, v.in} {
				for _, n := range es {
					if n < 0 || int(n) >= numNodes {
						t.Fatalf("vertex %d: edge target %d outside [0, %d)", id, n, numNodes)
					}
				}
			}
		}
		// Every element costs at least a byte of some record, and a record
		// is decoded at most once per id asked.
		a := &c.arena
		if got, bound := a.members.Cap()+a.nodes.Cap()+a.levels.Cap(), 3*2*max(64, len(ids)*len(data)); got > bound {
			t.Fatalf("slabs hold %d elements for a %d-byte blob and %d lookups", got, len(data), len(ids))
		}
	})
}
