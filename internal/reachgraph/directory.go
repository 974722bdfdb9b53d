// Partition blobs and the cursor that reads them.
//
// A partition blob is a directory followed by the partition's vertex
// records in ascending vertex-id order. The directory is searchable in
// place, so buffering a partition costs its header and a lookup costs a
// binary search — never a decode of the whole directory:
//
//	version | n uv | entry bytes uv | anchors | entries | records
//
// Entry i is (id − previous id, record length) as uvarints, and every
// anchorStride-th entry from the second group on has a fixed-width anchor
// (its id, its offset in the entry area, its record's offset in the record
// area); a lookup binary-searches the anchors and decodes at most
// anchorStride entries. The first group needs no anchor: it starts at
// offset 0 of both areas with previous id 0.
package reachgraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/visit"
)

const (
	anchorStride = 16 // directory entries per anchor
	anchorBytes  = 12 // id, entry offset, record offset
)

// partitionWriter serializes partitions; its encoders are reused from one
// partition to the next.
type partitionWriter struct {
	blob, anchors, entries, records *pagefile.Encoder
}

func newPartitionWriter() *partitionWriter {
	return &partitionWriter{
		blob:    pagefile.NewEncoder(1 << 14),
		anchors: pagefile.NewEncoder(1 << 8),
		entries: pagefile.NewEncoder(1 << 10),
		records: pagefile.NewEncoder(1 << 12),
	}
}

// encode returns the blob of the partition holding members, which it sorts
// by id. The result is valid until the next call.
func (w *partitionWriter) encode(g *dn.Graph, members []dn.NodeID, partOf []int32) []byte {
	slices.Sort(members)
	w.blob.Reset()
	w.anchors.Reset()
	w.entries.Reset()
	w.records.Reset()
	w.blob.Format()
	prev := dn.NodeID(0)
	for i, id := range members {
		before := w.records.Len()
		if i > 0 && i%anchorStride == 0 {
			w.anchors.Int32(int32(id))
			w.anchors.Uint32(uint32(w.entries.Len()))
			w.anchors.Uint32(uint32(before))
		}
		encodeVertex(w.records, g, id, partOf)
		w.entries.Uvarint(uint64(id - prev))
		w.entries.Uvarint(uint64(w.records.Len() - before))
		prev = id
	}
	w.blob.Uvarint(uint64(len(members)))
	w.blob.Uvarint(uint64(w.entries.Len()))
	w.blob.Raw(w.anchors.Bytes())
	w.blob.Raw(w.entries.Bytes())
	w.blob.Raw(w.records.Bytes())
	return w.blob.Bytes()
}

// partView is a buffered partition: three views of its blob.
type partView struct {
	n       int    // vertices in the partition
	index   []byte // fixed-width searchable part: the anchors
	entries []byte
	records []byte
}

// parsePartition validates the header of a partition blob against the
// blob's length and returns its views. No directory entry is read.
func parsePartition(data []byte) (partView, error) {
	dec := pagefile.NewDecoder(data)
	dec.Format()
	var pv partView
	n := dec.Uvarint()
	entryBytes := dec.Uvarint()
	var indexBytes uint64
	if n > 0 {
		indexBytes = (n - 1) / anchorStride * anchorBytes
	}
	if n > entryBytes/2 { // an entry is two uvarints
		dec.Failf("reachgraph: implausible record count %d for %d directory bytes", n, entryBytes)
	}
	if err := dec.Err(); err != nil {
		return partView{}, err
	}
	rest := data[len(data)-dec.Remaining():]
	// n is bounded by the blob's length, so the sum is exact.
	if entryBytes > uint64(len(rest)) || indexBytes+entryBytes > uint64(len(rest)) {
		return partView{}, fmt.Errorf("reachgraph: directory of %d records truncated (%d bytes left)", n, len(rest))
	}
	pv.n = int(n)
	pv.index = rest[:indexBytes]
	pv.entries = rest[indexBytes : indexBytes+entryBytes]
	pv.records = rest[indexBytes+entryBytes:]
	return pv, nil
}

// keepRecords is how many decoded records a cursor may carry into its next
// query (cursor.begin). Residency alone does not bound them: under a pool
// larger than the index every scratch would end up holding the whole index
// decoded, several times its size on the pages.
const keepRecords = 4096

// The two ways a directory lookup fails.
var (
	errNotListed    = errors.New("missing from partition")
	errBadDirectory = errors.New("directory entry points outside the blob")
)

// find returns the record bytes of vertex id, errNotListed when the
// directory does not list id, or errBadDirectory when the entry that should
// locate it points outside the blob.
func (pv *partView) find(id dn.NodeID) ([]byte, error) {
	// The group that can hold id: the last anchor at or below it, else the
	// unanchored first group.
	lo, hi := 0, len(pv.index)/anchorBytes
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dn.NodeID(binary.LittleEndian.Uint32(pv.index[mid*anchorBytes:])) <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	group := lo // 0: the first group; k: the group of anchor k-1
	cur, entOff, recOff := int64(0), uint64(0), uint64(0)
	if group > 0 {
		a := pv.index[(group-1)*anchorBytes:]
		cur = int64(int32(binary.LittleEndian.Uint32(a)))
		entOff = uint64(binary.LittleEndian.Uint32(a[4:]))
		recOff = uint64(binary.LittleEndian.Uint32(a[8:]))
		if entOff > uint64(len(pv.entries)) {
			return nil, errBadDirectory
		}
	}
	if recOff > uint64(len(pv.records)) {
		return nil, errBadDirectory
	}
	ents := pv.entries[entOff:]
	for i, left := 0, min(anchorStride, pv.n-group*anchorStride); i < left; i++ {
		gap, w1 := binary.Uvarint(ents)
		if w1 <= 0 {
			return nil, errBadDirectory
		}
		length, w2 := binary.Uvarint(ents[w1:])
		if w2 <= 0 || length > uint64(len(pv.records))-recOff {
			return nil, errBadDirectory
		}
		ents = ents[w1+w2:]
		if i > 0 || group == 0 { // an anchored entry's id is the anchor's
			cur += int64(gap)
		}
		if cur == int64(id) {
			return pv.records[recOff : recOff+length], nil
		}
		if cur > int64(id) {
			break
		}
		recOff += length
	}
	return nil, errNotListed
}

// cursor is a query's working set: the partitions it buffered (the paper's
// traversal buffer), the records decoded from them and the arena that owns
// those, plus the query's I/O accountant. The tables are epoch-stamped
// scratch recycled with the rest of the traversal state, so a steady-state
// query re-uses the previous query's arrays and allocates nothing. Nothing
// in a cursor is shared between in-flight queries, so evaluation runs fully
// in parallel.
//
// Records outlive the query for as long as the buffer pool lets no page go
// and there are at most keepRecords of them (begin): a working set that
// fits the pool is decoded once, not once per query. Partitions never
// outlive it. Every query reads each partition it uses — the pool is
// touched and charged, the blob checksummed — before it takes a record of
// it, kept or new, so page counts and corruption errors are those of a
// cursor that keeps nothing.
type cursor struct {
	ix   *Index
	acct *pagefile.Stats

	verts  visit.Table[*diskRec] // decoded records, by node
	loaded visit.Set             // partitions buffered by this query
	parts  []partView            // their views, by partition; valid where loaded
	arena  arena
	held   int      // records in the arena
	last   *diskRec // the record vertex returned last
	gen    uint64   // pool generation the kept records were decoded under
}

// reset empties the cursor.
func (c *cursor) reset(numNodes, numParts int) {
	c.ix, c.acct, c.last = nil, nil, nil
	c.verts.Reset(numNodes)
	c.loaded.Reset(numParts)
	if numParts > len(c.parts) {
		c.parts = make([]partView, numParts)
	}
	c.arena.reset()
	c.held = 0
}

// begin readies the cursor for one query against ix. The records of earlier
// queries are kept while the pool's generation stands still — every page
// they came from is then still resident — and dropped the moment a page is
// displaced or evicted or the cache dropped; a cursor holding more than
// keepRecords starts empty too. An index without a pool keeps nothing.
func (c *cursor) begin(ix *Index, acct *pagefile.Stats) {
	var gen uint64
	pool := ix.store.Pool()
	if pool != nil {
		gen = pool.Generation()
	}
	if pool != nil && c.ix == ix && c.gen == gen && c.held <= keepRecords {
		c.loaded.Reset(len(ix.partRefs))
	} else {
		c.reset(ix.numNodes, len(ix.partRefs))
	}
	c.ix, c.acct, c.gen = ix, acct, gen
}

// loadPartition buffers partition pid: one blob read and a header check. No
// directory entry and no vertex is decoded until visited.
func (c *cursor) loadPartition(pid int32) error {
	if pid < 0 || int(pid) >= len(c.ix.partRefs) {
		return fmt.Errorf("reachgraph: no partition %d", pid)
	}
	if c.loaded.Has(int(pid)) {
		return nil
	}
	data, err := c.ix.store.ReadBlob(c.ix.partRefs[pid], c.acct)
	if err != nil {
		return fmt.Errorf("reachgraph: partition %d: %w", pid, err)
	}
	pv, err := parsePartition(data)
	if err != nil {
		return fmt.Errorf("reachgraph: partition %d: %w", pid, err)
	}
	c.parts[pid] = pv
	c.loaded.Visit(int(pid))
	return nil
}

// vertex returns the record of node id, which the referencing edge (or the
// run directory) says lives in partition part: the partition is buffered on
// first use, the record found through its directory, and header and
// members decoded. Edge sections wait for need.
func (c *cursor) vertex(id dn.NodeID, part int32) (*vertexRec, error) {
	if id < 0 || int(id) >= c.ix.numNodes {
		return nil, fmt.Errorf("reachgraph: no vertex %d", id)
	}
	if err := c.loadPartition(part); err != nil {
		return nil, err
	}
	r, ok := c.verts.Get(int(id))
	if ok && r.part != part {
		return nil, fmt.Errorf("reachgraph: vertex %d, partition %d: %w", id, part, errNotListed)
	}
	if !ok {
		raw, err := c.parts[part].find(id)
		if err != nil {
			return nil, fmt.Errorf("reachgraph: vertex %d, partition %d: %w", id, part, err)
		}
		r = &c.arena.recs.alloc(1)[0]
		*r = diskRec{vertexRec: vertexRec{id: id}, part: part, raw: raw, known: 1}
		dec := pagefile.NewDecoder(raw)
		decodeHeader(dec, c.ix.numObjects, &r.vertexRec, &c.arena)
		if err := dec.Err(); err != nil {
			return nil, fmt.Errorf("reachgraph: vertex %d: %w", id, err)
		}
		r.off[0] = uint32(len(raw) - dec.Remaining())
		c.verts.Set(int(id), r)
		c.held++
	}
	c.last = r
	return &r.vertexRec, nil
}

// need decodes the sections of v named in want that are not decoded yet,
// skip-parsing the sections in front of them.
func (c *cursor) need(v *vertexRec, want uint8) error {
	r := c.last
	if r == nil || &r.vertexRec != v { // not the record just returned: find it again
		r, _ = c.verts.Get(int(v.id))
	}
	want &^= r.have
	for s := 0; want != 0; s++ {
		bit := uint8(1) << s
		if want&bit == 0 {
			continue
		}
		want &^= bit
		if err := c.decodeSection(r, s); err != nil {
			return fmt.Errorf("reachgraph: vertex %d, %s edges: %w", r.id, sectionNames[s], err)
		}
		r.have |= bit
	}
	return nil
}

// decodeSection decodes section s of r, first stepping over the sections
// between the last one whose start is known and s. Every section start
// learnt on the way is kept.
func (c *cursor) decodeSection(r *diskRec, s int) error {
	from := min(int(r.known)-1, s)
	dec := pagefile.NewDecoder(r.raw[r.off[from]:])
	for k := from; k <= s; k++ {
		if k < s {
			skipSection(dec, k)
		} else {
			switch uint8(1) << s {
			case secOut:
				r.out = decodeEdges(dec, c.ix.numNodes, &c.arena)
			case secIn:
				r.in = decodeEdges(dec, c.ix.numNodes, &c.arena)
			case secLongOut:
				r.longOut = decodeLongs(dec, c.ix.numNodes, &c.arena)
			case secLongIn:
				r.longIn = decodeLongs(dec, c.ix.numNodes, &c.arena)
			}
		}
		if err := dec.Err(); err != nil {
			return err
		}
		if k+1 == int(r.known) && k+1 < numSections {
			r.off[k+1] = uint32(len(r.raw) - dec.Remaining())
			r.known++
		}
	}
	return nil
}
