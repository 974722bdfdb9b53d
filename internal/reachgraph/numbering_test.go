package reachgraph

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/testgen"
)

// TestPartitionNumbering holds the index's vertex numbering to the
// partitioning it comes from, on a generated dataset at every depth from 1
// to 64: the catalogue's ranges are non-empty, ascending, contiguous and
// cover [0, numNodes), with one lookup entry per bucketIDs IDs; the
// numbering is a permutation, and the catalogue's lookup answers, for every
// vertex, the partition the writer put it in; and every edge target of
// every list of every record names the record at its position that holds
// the graph's own target.
func TestPartitionNumbering(t *testing.T) {
	for depth := 1; depth <= 64; depth++ {
		src := testgen.New(testgen.Random(int64(depth), 64))
		g := dn.Build(src.Spec(40, 400, 0).Network())
		ix, err := Build(g, Params{PartitionDepth: depth, PoolPages: -1})
		if err != nil {
			t.Fatal(err)
		}
		writer, parts := partition(g, depth)
		num := number(len(g.Nodes), parts)

		first := ix.first
		if len(first) != len(ix.partRefs)+1 || first[0] != 0 || int(first[len(first)-1]) != len(g.Nodes) {
			t.Fatalf("depth %d: %d range starts for %d partitions, from %d to %d; want from 0 to %d",
				depth, len(first), len(ix.partRefs), first[0], first[len(first)-1], len(g.Nodes))
		}
		for p := range ix.partRefs {
			if first[p+1] <= first[p] {
				t.Fatalf("depth %d: partition %d holds [%d, %d)", depth, p, first[p], first[p+1])
			}
		}
		if !slices.Equal(first, num.first) {
			t.Fatalf("depth %d: the catalogue's ranges are not the writer's", depth)
		}
		if want := (len(g.Nodes) + bucketIDs - 1) / bucketIDs; len(ix.bucket) != want {
			t.Fatalf("depth %d: %d lookup entries for %d vertices, want %d", depth, len(ix.bucket), len(g.Nodes), want)
		}

		graphOf := make([]dn.NodeID, len(g.Nodes))
		for i := range graphOf {
			graphOf[i] = dn.Invalid
		}
		for v := range g.Nodes {
			id := num.of[v]
			if id < 0 || int(id) >= len(g.Nodes) || graphOf[id] != dn.Invalid {
				t.Fatalf("depth %d: vertex %d numbered %d, out of range or taken", depth, v, id)
			}
			graphOf[id] = dn.NodeID(v)
			if got := ix.partOf(id); got != writer[v] {
				t.Fatalf("depth %d: vertex %d (index %d) looked up in partition %d, written to %d", depth, v, id, got, writer[v])
			}
		}

		sc := ix.begin(nil)
		for v := range g.Nodes {
			want := graphRecord(g, num.of, dn.NodeID(v))
			r, err := sc.cur.vertex(want.id)
			if err == nil {
				r, err = sc.cur.need(r, secOut|secIn|secLongOut|secLongIn)
			}
			if err != nil {
				t.Fatalf("depth %d: vertex %d: %v", depth, want.id, err)
			}
			if !sameRecord(r, want) {
				t.Fatalf("depth %d: vertex %d (graph %d) decodes to\n%+v, the graph says\n%+v", depth, want.id, v, *r, *want)
			}
			targets := slices.Concat(r.out, r.in)
			for _, l := range slices.Concat(r.longOut, r.longIn) {
				targets = append(targets, l.edges...)
			}
			for _, tgt := range targets {
				w := graphOf[tgt]
				rt, err := sc.cur.vertex(tgt)
				if err != nil {
					t.Fatalf("depth %d: vertex %d: edge target %d: %v", depth, want.id, tgt, err)
				}
				nd := &g.Nodes[w]
				if rt.id != tgt || rt.start != nd.Start || rt.end != nd.End || !slices.Equal(rt.members, g.Members(w)) {
					t.Fatalf("depth %d: vertex %d: edge target %d holds another record than graph vertex %d", depth, want.id, tgt, w)
				}
			}
		}
		ix.pool.Put(sc)
	}
}

// partitionDirectory is a partition blob taken apart, for forging.
type partitionDirectory struct {
	n       uint64
	anchors [][2]uint32 // entry offset, record offset
	lengths []uint64
	records []byte
}

// readDirectory takes a layout-4 partition blob apart.
func readDirectory(t *testing.T, blob []byte) partitionDirectory {
	t.Helper()
	var d partitionDirectory
	at := 1
	next := func() uint64 {
		v, w := binary.Uvarint(blob[at:])
		if w <= 0 {
			t.Fatal("malformed partition header")
		}
		at += w
		return v
	}
	d.n = next()
	entryBytes := int(next())
	for k := uint64(0); k < (d.n-1)/anchorStride; k++ {
		d.anchors = append(d.anchors, [2]uint32{binary.LittleEndian.Uint32(blob[at:]), binary.LittleEndian.Uint32(blob[at+4:])})
		at += anchorBytes
	}
	for end := at + entryBytes; at < end; {
		d.lengths = append(d.lengths, next())
	}
	d.records = blob[at:]
	return d
}

// write encodes d as a partition blob, anchors and lengths as they are.
func (d partitionDirectory) write() []byte {
	entries := pagefile.NewEncoder(64)
	for _, l := range d.lengths {
		entries.Uvarint(l)
	}
	enc := pagefile.NewEncoder(1024)
	enc.Format()
	enc.Uvarint(d.n)
	enc.Uvarint(uint64(entries.Len()))
	for _, a := range d.anchors {
		enc.Uint32(a[0])
		enc.Uint32(a[1])
	}
	enc.Raw(entries.Bytes())
	enc.Raw(d.records)
	return enc.Bytes()
}

// TestForgedPartitionDirectoriesFail installs partition blobs that pass the
// store's checksum but whose positional directory contradicts itself or
// the catalogue — record lengths past the record area or past their group,
// anchors that do not ascend or point past their areas, counts other than
// the size of the catalogue's range — and reads every vertex of the
// partition, every section: no lookup panics, each either errs or decodes
// the graph's record, and every forgery fails at least one lookup; a count
// that disagrees fails every one.
func TestForgedPartitionDirectoriesFail(t *testing.T) {
	g := toggleGraph()
	const depth = 60
	ix, err := Build(g, Params{PartitionDepth: depth, PoolPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	num, parts := layout(g, depth)
	pid := 0
	for p := range parts {
		if len(parts[p]) > len(parts[pid]) {
			pid = p
		}
	}
	blob, err := pagefile.Whole(ix.store.ReadBlob(ix.partRefs[pid], nil))
	if err != nil {
		t.Fatal(err)
	}
	intact := readDirectory(t, blob)
	if n := len(intact.anchors); n < 3 {
		t.Fatalf("largest partition has %d anchors, the test wants three or more", n)
	}
	if !slices.Equal(intact.write(), blob) {
		t.Fatal("the directory read back does not write the blob Build wrote")
	}
	last := len(intact.lengths) - 1
	forgeries := []struct {
		name  string
		all   bool // every lookup must fail
		forge func(d *partitionDirectory)
	}{
		{"last record length past the record area", false, func(d *partitionDirectory) { d.lengths[last]++ }},
		{"a record length past its group", false, func(d *partitionDirectory) { d.lengths[anchorStride+1]++ }},
		{"a record length short of its group", false, func(d *partitionDirectory) { d.lengths[anchorStride+1]-- }},
		{"record area cut short", false, func(d *partitionDirectory) { d.records = d.records[:len(d.records)-1] }},
		{"record area one byte long", false, func(d *partitionDirectory) { d.records = append(d.records, 0) }},
		{"entry offsets do not ascend", false, func(d *partitionDirectory) { d.anchors[2][0] = d.anchors[0][0] }},
		{"record offsets do not ascend", false, func(d *partitionDirectory) { d.anchors[2][1] = d.anchors[0][1] }},
		{"anchors swapped", false, func(d *partitionDirectory) { d.anchors[1], d.anchors[2] = d.anchors[2], d.anchors[1] }},
		{"entry offset past the entries", false, func(d *partitionDirectory) { d.anchors[1][0] = 1 << 20 }},
		{"record offset past the records", false, func(d *partitionDirectory) { d.anchors[1][1] = 1 << 20 }},
		{"count one short", true, func(d *partitionDirectory) { d.n-- }},
		{"count one over", true, func(d *partitionDirectory) { d.n++ }},
		{"count a group over", true, func(d *partitionDirectory) { d.n += anchorStride }},
		{"count and anchors a group short", true, func(d *partitionDirectory) {
			d.n -= anchorStride
			d.anchors = d.anchors[:len(d.anchors)-1]
		}},
	}
	for k := range intact.anchors {
		for field, what := range []string{"entry", "record"} {
			forgeries = append(forgeries, struct {
				name  string
				all   bool
				forge func(d *partitionDirectory)
			}{fmt.Sprintf("anchor %d %s offset nudged", k, what), false, func(d *partitionDirectory) { d.anchors[k][field]++ }})
		}
	}
	ref := ix.partRefs[pid]
	for _, tc := range forgeries {
		t.Run(tc.name, func(t *testing.T) {
			d := intact
			d.anchors, d.lengths = slices.Clone(intact.anchors), slices.Clone(intact.lengths)
			tc.forge(&d)
			ix.partRefs[pid] = ix.store.AppendBlob(d.write())
			defer func() { ix.partRefs[pid] = ref }()
			failed := 0
			for k, v := range parts[pid] {
				sc := ix.begin(nil)
				r, err := sc.cur.vertex(num.of[v])
				if err == nil {
					r, err = sc.cur.need(r, secOut|secIn|secLongOut|secLongIn)
				}
				switch {
				case err != nil:
					failed++
				case !sameRecord(r, graphRecord(g, num.of, v)):
					t.Errorf("record %d: decoded another record than the graph's", k)
				}
				ix.pool.Put(sc)
			}
			if failed == 0 || tc.all && failed != len(parts[pid]) {
				t.Errorf("%d of %d lookups failed", failed, len(parts[pid]))
			}
		})
	}
}
