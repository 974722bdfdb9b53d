package reachgraph

import (
	"encoding/binary"
	"testing"

	"streach/internal/dn"
	"streach/internal/pagefile"
)

// FuzzPartitionBlob feeds arbitrary bytes to the disk read path as a
// partition blob. The bytes go through AppendBlob, so their checksum is
// valid and everything behind it has to hold on its own: buffering the
// partition, looking up ids (those the bytes themselves seem to name and
// arbitrary ones) and decoding every section of whatever is found, in an
// order the input picks, may return errors and nothing else — no panic, no
// record reaching past the blob into its extent neighbour, no slab growing
// past what the blob's size can account for. The seeds are real partitions
// — a mobility fixture's, and the toggle graph's at depth 9, whose sizes
// sit around an anchor boundary — and one of them again under the version
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
		for _, ref := range ix.partRefs {
			blob, err := pagefile.Whole(ix.store.ReadBlob(ref, nil))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob, uint32(0))
		}
	}
	f.Add(oldVersionPartition(f, fx.g), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, pick uint32) {
		ix := blobIndex(numNodes, numObjects, data)
		blob, err := pagefile.Whole(ix.store.ReadBlob(ix.partRefs[0], nil))
		if err != nil {
			t.Fatal(err)
		}
		sc := ix.begin(nil)
		defer ix.pool.Put(sc)
		c := &sc.cur
		if c.loadPartition(0) != nil {
			return
		}
		// Ids to ask for: pick, and every 32-bit word of the blob — where the
		// anchors keep theirs.
		ids := []dn.NodeID{dn.NodeID(pick % uint32(numNodes))}
		for off := 0; off+4 <= len(data) && len(ids) < 64; off++ {
			if id := binary.LittleEndian.Uint32(data[off:]); id < uint32(numNodes) {
				ids = append(ids, dn.NodeID(id))
			}
		}
		for i, id := range ids {
			if rec, _, err := c.parts[0].find(id, &c.checked); err == nil && !withinBlob(blob, rec) {
				t.Fatalf("vertex %d: record of %d bytes runs past the %d-byte blob", id, len(rec), len(blob))
			}
			v, err := c.vertex(id, 0)
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
			for _, es := range []edgeList{v.out, v.in} {
				if len(es.parts) != len(es.nodes) {
					t.Fatalf("vertex %d: %d edges, %d partition hints", id, len(es.nodes), len(es.parts))
				}
				for _, n := range es.nodes {
					if n < 0 || int(n) >= numNodes {
						t.Fatalf("vertex %d: edge target %d outside [0, %d)", id, n, numNodes)
					}
				}
			}
		}
		// Every element costs at least a byte of some record, and a record
		// is decoded at most once per id asked. Partition hints grow in step
		// with the neighbours they belong to.
		a := &c.arena
		if a.parts.Cap() != a.nodes.Cap() {
			t.Fatalf("slabs hold %d neighbours but %d partition hints", a.nodes.Cap(), a.parts.Cap())
		}
		if got, bound := a.members.Cap()+a.nodes.Cap()+a.levels.Cap(), 3*2*max(64, len(ids)*len(data)); got > bound {
			t.Fatalf("slabs hold %d elements for a %d-byte blob and %d lookups", got, len(data), len(ids))
		}
	})
}
