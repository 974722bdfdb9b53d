// Partition blobs and the cursor that reads them.
//
// A partition blob is a directory followed by the partition's vertex
// records in ascending ID order. The partition holds the IDs the catalogue
// gives it, one contiguous range, so the directory is positional: record k
// is that of the partition's k-th ID, and an entry is a record's length
// alone. The directory is searchable in place, so buffering a partition
// costs its header and a lookup one anchor and one group of entries —
// never a decode of the whole directory:
//
//	version | n uv | entry bytes uv | anchors | entries | records
//
// Entry k is the length of record k as a uvarint, and every
// anchorStride-th entry from the second group on has a fixed-width anchor:
// its offset in the entry area and its record's offset in the record area.
// A lookup of record k reads the anchor of k's group and decodes that
// group, at most anchorStride entries; the first group needs no anchor, it
// starts at offset 0 of both areas. A group must end exactly where the
// next one's anchor — or, for the last, the two areas — say it does, so
// an anchor that disagrees with the entries fails every lookup in the two
// groups it bounds instead of answering one, and n must be the size of
// the catalogue's range.
//
// A partition that spans pages is verified where it is interpreted (see
// pagefile's Integrity): its header before it is parsed, its anchors once
// when it is buffered, an entry group before a lookup scans it, and a
// record before it is decoded — or, taken decoded from the index's shared
// table, used, together with the entry group its lookup scanned. The
// cursor's set of verified pages makes each page cost one checksum per
// query however many of these cover it.
package reachgraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/visit"
)

const (
	anchorStride = 16 // directory entries per anchor
	anchorBytes  = 8  // entry offset, record offset
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

// encode returns the blob of the partition holding members, ascending graph
// IDs that num numbers consecutively. The result is valid until the next
// call.
func (w *partitionWriter) encode(g *dn.Graph, members []dn.NodeID, num []dn.NodeID) []byte {
	w.blob.Reset()
	w.anchors.Reset()
	w.entries.Reset()
	w.records.Reset()
	w.blob.Format()
	for i, id := range members {
		before := w.records.Len()
		if i > 0 && i%anchorStride == 0 {
			w.anchors.Uint32(uint32(w.entries.Len()))
			w.anchors.Uint32(uint32(before))
		}
		encodeVertex(w.records, g, id, num)
		w.entries.Uvarint(uint64(w.records.Len() - before))
	}
	w.blob.Uvarint(uint64(len(members)))
	w.blob.Uvarint(uint64(w.entries.Len()))
	w.blob.Raw(w.anchors.Bytes())
	w.blob.Raw(w.entries.Bytes())
	w.blob.Raw(w.records.Bytes())
	return w.blob.Bytes()
}

// partView is a buffered partition: its blob, and where the anchors (the
// fixed-width searchable part), the entries and the records begin in the
// payload; each area ends where the next begins, the records at its end.
type partView struct {
	blob                    pagefile.Blob
	n                       int32 // vertices in the partition
	index, entries, records int32
}

// maxPartitionHeader bounds the bytes in front of the anchors: the version
// byte and two uvarints.
const maxPartitionHeader = 1 + 2*binary.MaxVarintLen64

// parsePartition validates the header of a partition blob against the
// blob's length and against n, the size of the catalogue's range for it,
// and returns its view. The caller has verified the first
// maxPartitionHeader bytes; no directory entry is read.
func parsePartition(blob pagefile.Blob, n int32) (partView, error) {
	data := blob.Bytes()
	dec := pagefile.NewDecoder(data)
	dec.Format()
	listed := dec.Uvarint()
	entryBytes := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return partView{}, err
	}
	if listed != uint64(n) {
		return partView{}, fmt.Errorf("reachgraph: directory lists %d records, the catalogue %d", listed, n)
	}
	if listed > entryBytes { // an entry is a uvarint
		return partView{}, fmt.Errorf("reachgraph: implausible record count %d for %d directory bytes", listed, entryBytes)
	}
	var indexBytes uint64
	if n > 0 {
		indexBytes = uint64(n-1) / anchorStride * anchorBytes
	}
	rest := dec.Remaining()
	// n is at most the catalogue's vertex count, so the sum is exact.
	if entryBytes > uint64(rest) || indexBytes+entryBytes > uint64(rest) {
		return partView{}, fmt.Errorf("reachgraph: directory of %d records truncated (%d bytes left)", n, rest)
	}
	pv := partView{blob: blob, n: n, index: int32(len(data) - rest)}
	pv.entries = pv.index + int32(indexBytes)
	pv.records = pv.entries + int32(entryBytes)
	return pv, nil
}

// errBadDirectory reports a directory group that does not end where its
// anchors say, or whose records do not fit it.
var errBadDirectory = errors.New("directory group disagrees with its anchors")

// find returns the bytes of record k, 0 ≤ k < pv.n, and the payload range
// of the directory entries it scanned for them, or errBadDirectory when
// k's group of entries does not end exactly at the offsets its anchors
// give. It verifies the entry group it scans, through seen; the anchors
// were verified when the partition was buffered.
func (pv *partView) find(k int32, seen *visit.Set) ([]byte, [2]int32, error) {
	data := pv.blob.Bytes()
	index, entries, records := data[pv.index:pv.entries], data[pv.entries:pv.records], data[pv.records:]
	anchor := func(g int) (ent, rec uint64) {
		a := index[g*anchorBytes:]
		return uint64(binary.LittleEndian.Uint32(a)), uint64(binary.LittleEndian.Uint32(a[4:]))
	}
	group := int(k / anchorStride)
	entOff, recOff := uint64(0), uint64(0)
	if group > 0 {
		entOff, recOff = anchor(group - 1)
	}
	entEnd, recEnd := uint64(len(entries)), uint64(len(records))
	if group < len(index)/anchorBytes {
		entEnd, recEnd = anchor(group)
	}
	if entOff > entEnd || entEnd > uint64(len(entries)) || recOff > recEnd || recEnd > uint64(len(records)) {
		return nil, [2]int32{}, errBadDirectory
	}
	scanned := [2]int32{pv.entries + int32(entOff), pv.entries + int32(entEnd)}
	if err := pv.blob.Verify(int(scanned[0]), int(scanned[1]), seen); err != nil {
		return nil, [2]int32{}, err
	}
	ents := entries[entOff:entEnd]
	var rec []byte
	for i, left := 0, min(anchorStride, int(pv.n)-group*anchorStride); i < left; i++ {
		length, w := binary.Uvarint(ents)
		if w <= 0 || length > recEnd-recOff {
			return nil, [2]int32{}, errBadDirectory
		}
		ents = ents[w:]
		if i == int(k%anchorStride) {
			rec = records[recOff : recOff+length]
		}
		recOff += length
	}
	if len(ents) != 0 || recOff != recEnd {
		return nil, [2]int32{}, errBadDirectory
	}
	return rec, scanned, nil
}

// cursor is a query's working set: the partitions it buffered (the paper's
// traversal buffer), the records it decoded and the arena that owns them,
// plus the query's I/O accountant. The tables are epoch-stamped scratch
// recycled with the rest of the traversal state, so a steady-state query
// re-uses the previous query's arrays and allocates nothing. Nothing a
// cursor writes is shared between in-flight queries, so evaluation runs
// fully in parallel.
//
// The arena lives for one query. Decoded records outlive it only through
// the index's one decoded copy (recTable): a record the query finds there
// is read in place, not decoded again, and the records the query decoded
// or completed are published there when it ends (end). Partitions never
// outlive the query. Every query reads each partition it uses — the pool
// is touched and charged — and verifies the pages of a record, shared or
// its own, before it takes the record, so page counts and corruption
// errors are those of a cursor that keeps nothing.
type cursor struct {
	ix   *Index
	acct *pagefile.Stats

	verts   visit.Table[*diskRec] // the records this query decoded or completed, by node
	loaded  visit.Set             // partitions buffered by this query
	checked visit.Set             // store pages this query verified
	parts   []partView            // their views, by partition; valid where loaded
	arena   arena                 // owns the records in verts
	fresh   []dn.NodeID           // their nodes, to publish when the query ends
	shared  *recTable             // the index's decoded records, if filled under gen
	view    diskRec               // the shared record vertex returned last, thawed
	last    *diskRec              // the record vertex returned last
	gen     uint64                // pool generation at begin
}

// begin readies the cursor for one query against ix. It reads the pool's
// generation once: the index's shared records are used only if they were
// decoded under that same generation, while every page they came from is
// still resident. An index without a pool shares nothing. No page counts
// as verified until this query verifies it.
func (c *cursor) begin(ix *Index, acct *pagefile.Stats) {
	c.ix, c.acct, c.last, c.shared, c.gen = ix, acct, nil, nil, 0
	c.verts.Reset(ix.numNodes)
	c.loaded.Reset(len(ix.partRefs))
	if len(ix.partRefs) > len(c.parts) {
		c.parts = make([]partView, len(ix.partRefs))
	}
	c.checked.Reset(int(ix.store.NumPages()))
	c.arena.reset()
	c.fresh = c.fresh[:0]
	if pool := ix.store.Pool(); pool != nil {
		c.gen = pool.Generation()
		if t := ix.decoded.Load(); t != nil && t.gen == c.gen {
			c.shared = t
		}
	}
}

// loadPartition buffers partition pid: one blob read, and a check of its
// header and anchors. No directory entry and no vertex is decoded until
// visited.
func (c *cursor) loadPartition(pid int32) error {
	if c.loaded.Has(int(pid)) {
		return nil
	}
	blob, err := c.ix.store.ReadBlob(c.ix.partRefs[pid], c.acct)
	if err == nil {
		err = blob.Verify(0, maxPartitionHeader, &c.checked)
	}
	var pv partView
	if err == nil {
		pv, err = parsePartition(blob, c.ix.first[pid+1]-c.ix.first[pid])
	}
	if err == nil {
		err = pv.blob.Verify(int(pv.index), int(pv.entries), &c.checked)
	}
	if err != nil {
		return fmt.Errorf("reachgraph: partition %d: %w", pid, err)
	}
	c.parts[pid] = pv
	c.loaded.Visit(int(pid))
	return nil
}

// vertex returns the record of node id: its partition is buffered on first
// use, and the record taken from this query's own, else from the index's
// shared table, else found through the partition's directory and decoded,
// header and members only. Its pages are verified either way. Edge
// sections wait for need.
func (c *cursor) vertex(id dn.NodeID) (*vertexRec, error) {
	if id < 0 || int(id) >= c.ix.numNodes {
		return nil, fmt.Errorf("reachgraph: no vertex %d", id)
	}
	part := c.ix.partOf(id)
	if err := c.loadPartition(part); err != nil {
		return nil, err
	}
	pv := &c.parts[part]
	r, ok := c.verts.Get(int(id))
	if !ok && c.shared != nil {
		if s := c.shared.load(id); s != nil {
			r, ok = &c.view, true
			s.thaw(id, pv.blob.Bytes(), r)
		}
	}
	var raw []byte
	var scanned [2]int32
	if ok {
		// Decoded by a lookup like the one skipped here, whose directory
		// entries are verified as that lookup would have.
		raw, scanned = r.raw, r.scanned
		if err := pv.blob.Verify(int(scanned[0]), int(scanned[1]), &c.checked); err != nil {
			return nil, fmt.Errorf("reachgraph: vertex %d, partition %d: %w", id, part, err)
		}
	} else {
		var err error
		if raw, scanned, err = pv.find(int32(id)-c.ix.first[part], &c.checked); err != nil {
			return nil, fmt.Errorf("reachgraph: vertex %d, partition %d: %w", id, part, err)
		}
	}
	// The record, like the blob, is a view of the store's memory: where it
	// starts in the payload is how much shorter its capacity is.
	at := cap(pv.blob.Bytes()) - cap(raw)
	if err := pv.blob.Verify(at, at+len(raw), &c.checked); err != nil {
		return nil, fmt.Errorf("reachgraph: vertex %d, partition %d: %w", id, part, err)
	}
	if !ok {
		r = c.own(id)
		*r = diskRec{vertexRec: vertexRec{id: id}, raw: raw, at: uint32(at), scanned: scanned, known: 1}
		dec := pagefile.NewDecoder(raw)
		decodeHeader(dec, c.ix.numObjects, &r.vertexRec, &c.arena)
		if err := dec.Err(); err != nil {
			return nil, fmt.Errorf("reachgraph: vertex %d: %w", id, err)
		}
		r.off[0] = uint32(len(raw) - dec.Remaining())
		c.verts.Set(int(id), r)
	}
	c.last = r
	return &r.vertexRec, nil
}

// own returns a record of node id in the arena, for this query to fill and
// to publish when it ends.
func (c *cursor) own(id dn.NodeID) *diskRec {
	c.fresh = append(c.fresh, id)
	return &c.arena.recs.Alloc(1)[0]
}

// need decodes the sections of v named in want that are not decoded yet,
// skip-parsing the sections in front of them, and returns the record that
// holds them: v itself, or, when v is a shared record — never written once
// published — this query's own copy of it.
func (c *cursor) need(v *vertexRec, want uint8) (*vertexRec, error) {
	r := c.last
	if r == nil || &r.vertexRec != v { // not the record just returned: find it again
		r, _ = c.verts.Get(int(v.id))
	}
	want &^= r.have
	if want == 0 {
		return v, nil
	}
	if r == &c.view {
		cp := c.own(r.id)
		*cp = *r
		r = cp
		c.verts.Set(int(r.id), r)
		c.last = r
	}
	for s := 0; want != 0; s++ {
		bit := uint8(1) << s
		if want&bit == 0 {
			continue
		}
		want &^= bit
		if err := c.decodeSection(r, s); err != nil {
			return nil, fmt.Errorf("reachgraph: vertex %d, %s edges: %w", r.id, sectionNames[s], err)
		}
		r.have |= bit
	}
	return &r.vertexRec, nil
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
				r.out = decodeEdges(dec, r.id, c.ix.numNodes, &c.arena)
			case secIn:
				r.in = decodeEdges(dec, r.id, c.ix.numNodes, &c.arena)
			case secLongOut:
				r.longOut = decodeLongs(dec, r.id, c.ix.numNodes, &c.arena)
			case secLongIn:
				r.longIn = decodeLongs(dec, r.id, c.ix.numNodes, &c.arena)
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

// recTable is an index's one decoded copy of its records, by node, filled
// by the queries of one pool generation. A query publishes to it only if
// the generation has not moved since the query began, and reads it only if
// the table's generation is the one it began under: every record in it then
// comes from pages that are still resident, so what the table holds is
// bounded by the pool's page budget. When the generation moves, the next
// publication starts a new table; the old one, and the records in it, are
// never written again and are freed once no query holds them.
type recTable struct {
	gen    uint64
	chunks []atomic.Pointer[recChunk] // by node / chunkNodes; nil until published to
}

// recChunk is the unit a recTable grows by, so that a new table costs what
// its queries publish, not a pointer per node of the index: under a pool
// just short of the index the generation moves every few queries.
type recChunk [chunkNodes]atomic.Pointer[sharedRec]

const chunkNodes = 256

func newRecTable(gen uint64, numNodes int) *recTable {
	return &recTable{gen: gen, chunks: make([]atomic.Pointer[recChunk], (numNodes+chunkNodes-1)/chunkNodes)}
}

// load returns the shared record of node id, or nil.
func (t *recTable) load(id dn.NodeID) *sharedRec {
	if ch := t.chunks[id/chunkNodes].Load(); ch != nil {
		return ch[id%chunkNodes].Load()
	}
	return nil
}

// store publishes s as the record of node id. The caller holds the index's
// publication lock.
func (t *recTable) store(id dn.NodeID, s *sharedRec) {
	slot := &t.chunks[id/chunkNodes]
	ch := slot.Load()
	if ch == nil {
		ch = new(recChunk)
		slot.Store(ch)
	}
	ch[id%chunkNodes].Store(s)
}

// end closes the query: if it succeeded, what it decoded is published, and
// the cursor lets go of the shared table either way.
func (c *cursor) end(err error) {
	if err == nil {
		c.publish()
	}
	c.shared, c.view, c.last = nil, diskRec{}, nil
}

// publish offers the records this query decoded or completed to the index's
// shared table, copied out of the arena, which the next query reuses. A
// record the table already holds with every section this query decoded is
// left as it is; one that gains sections is replaced by a copy carrying the
// sections of both.
func (c *cursor) publish() {
	ix := c.ix
	pool := ix.store.Pool()
	if len(c.fresh) == 0 || pool == nil {
		return
	}
	ix.publishMu.Lock()
	defer ix.publishMu.Unlock()
	// Checked under the lock: generations only grow, so no table of a later
	// generation than this query's can have been published yet.
	if pool.Generation() != c.gen {
		return
	}
	t := ix.decoded.Load()
	if t == nil || t.gen != c.gen {
		t = newRecTable(c.gen, ix.numNodes)
		ix.decoded.Store(t)
	}
	var recs []*diskRec
	for _, id := range c.fresh {
		r, _ := c.verts.Get(int(id))
		if old := t.load(id); old != nil {
			if r.have&^old.have == 0 {
				continue
			}
			var o diskRec
			old.thaw(id, c.parts[ix.partOf(id)].blob.Bytes(), &o)
			r.merge(&o)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return
	}
	shared := freeze(recs)
	for i, r := range recs {
		t.store(r.id, &shared[i])
	}
}
