// Vertex records: the on-page layout, its lazy decode into the cursor's
// arena, and the frozen form an index shares between queries.
//
// A record is a header (span), the member posting, and four edge sections
// in fixed order — out, in, longOut, longIn. The vertex id is not stored:
// the record's position in its partition names it. An edge is its target's
// index ID alone, as a zig-zag delta from the previous target of its list,
// the first from the record's own ID: the target's partition follows from
// the ID (Index.partOf), and most targets lie in or beside the record's own
// partition. Lists keep the graph's order, so a traversal meets the
// targets in the order the memory index does. Decoding is
// lazy per section: looking a vertex up decodes header and members only,
// and a traversal asks (graphAccess.need) for the one or two sections its
// direction reads. Sections are not length-prefixed, so reaching a later
// one skip-parses those in front; a skipped section is never validated,
// a decoded one always is.
package reachgraph

import (
	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/trajectory"
	"streach/internal/visit"
)

// Edge sections of a vertex record, as bits in on-page order.
const (
	secOut uint8 = 1 << iota
	secIn
	secLongOut
	secLongIn

	numSections      = 4
	firstLongSection = 2 // sections below are edge lists, the rest level lists
)

var sectionNames = [numSections]string{"out", "in", "long-out", "long-in"}

// levelEdges is one long-edge resolution's target list. Records carry at
// most a handful of levels, so a sorted slice beats a map on both decode
// allocations and lookup time.
type levelEdges struct {
	level int
	edges []dn.NodeID
}

// levelEdgesAt returns the edges at resolution L, or an empty list.
func levelEdgesAt(ls []levelEdges, L int) []dn.NodeID {
	for i := range ls {
		if ls[i].level == L {
			return ls[i].edges
		}
	}
	return nil
}

// vertexRec is a vertex record as the traversals read it: on disk decoded
// into a cursor's arena (diskRec), in memory one record per query whose
// slices are views of the graph's own (memAccess). It carries no decode
// state: that lives in diskRec.
type vertexRec struct {
	id         dn.NodeID
	start, end trajectory.Tick
	members    []trajectory.ObjectID
	out, in    []dn.NodeID
	longOut    []levelEdges // ascending resolution
	longIn     []levelEdges
}

// diskRec is a vertex record read from a partition blob: the decoded view
// plus what decoding the rest on demand needs. It lives in the arena of the
// query that decoded it, or in the cursor's view of a shared record
// (sharedRec.thaw), and a query only ever takes it after its own read of
// the partition has verified the pages the record's bytes are on
// (cursor.vertex).
type diskRec struct {
	vertexRec
	raw     []byte              // the record's bytes, a view of the partition blob
	off     [numSections]uint32 // where each section starts in raw
	scanned [2]int32            // the directory entries its lookup scanned, in the payload
	at      uint32              // where raw starts in the partition's payload
	have    uint8               // sections decoded so far
	known   uint8               // off[:known] are valid; at least 1 once decoded
}

// merge gives r the sections that o, a record of the same vertex, has and
// r lacks, and o's section starts if o knows more of them.
func (r *diskRec) merge(o *diskRec) {
	add := o.have &^ r.have
	if add&secOut != 0 {
		r.out = o.out
	}
	if add&secIn != 0 {
		r.in = o.in
	}
	if add&secLongOut != 0 {
		r.longOut = o.longOut
	}
	if add&secLongIn != 0 {
		r.longIn = o.longIn
	}
	r.have |= add
	if o.known > r.known {
		r.off, r.known = o.off, o.known
	}
}

// sharedRec is a record in an index's shared table (recTable): a diskRec
// with its lists as ranges of the arrays of the publication that froze it.
// Records are many and their lists short, so ranges rather than slices keep
// the table near the size of what it decoded. It is never written once
// published; a query reads it through a diskRec rebuilt around those
// arrays (thaw).
type sharedRec struct {
	lists      *frozen // the arrays its spans index
	start, end trajectory.Tick
	at, n      uint32 // the record's bytes in its partition's payload
	scanned    [2]int32
	off        [numSections]uint32
	have       uint8
	known      uint8

	members, out, in, longOut, longIn span
}

// span is a range of one of frozen's arrays.
type span struct{ lo, hi uint32 }

// frozen holds the lists of the records one publication froze.
type frozen struct {
	members []trajectory.ObjectID
	nodes   []dn.NodeID
	levels  []levelEdges
}

// thaw rebuilds into r the record of node id that s holds; payload is its
// partition's.
func (s *sharedRec) thaw(id dn.NodeID, payload []byte, r *diskRec) {
	f := s.lists
	r.id, r.start, r.end = id, s.start, s.end
	r.members = f.members[s.members.lo:s.members.hi:s.members.hi]
	r.out, r.in = f.edges(s.out), f.edges(s.in)
	r.longOut = f.levels[s.longOut.lo:s.longOut.hi:s.longOut.hi]
	r.longIn = f.levels[s.longIn.lo:s.longIn.hi:s.longIn.hi]
	r.raw = payload[s.at : s.at+s.n] // capacity to the payload's end, as find's
	r.at, r.off, r.scanned, r.have, r.known = s.at, s.off, s.scanned, s.have, s.known
}

func (f *frozen) edges(s span) []dn.NodeID { return f.nodes[s.lo:s.hi:s.hi] }

// freeze copies the lists of records rs into arrays of their own, exactly
// sized, and returns the records as shared ones, in order.
func freeze(rs []*diskRec) []sharedRec {
	var members, nodes, levels int
	for _, r := range rs {
		members += len(r.members)
		nodes += len(r.out) + len(r.in)
		for _, ls := range [...][]levelEdges{r.longOut, r.longIn} {
			levels += len(ls)
			for _, l := range ls {
				nodes += len(l.edges)
			}
		}
	}
	f := &frozen{
		members: make([]trajectory.ObjectID, 0, members),
		nodes:   make([]dn.NodeID, 0, nodes),
		levels:  make([]levelEdges, 0, levels),
	}
	out := make([]sharedRec, len(rs))
	for i, r := range rs {
		out[i] = sharedRec{
			lists: f, start: r.start, end: r.end,
			at: r.at, n: uint32(len(r.raw)), scanned: r.scanned,
			off: r.off, have: r.have, known: r.known,
			members: appendSpan(&f.members, r.members),
			out:     appendSpan(&f.nodes, r.out), in: appendSpan(&f.nodes, r.in),
			longOut: f.putLevels(r.longOut), longIn: f.putLevels(r.longIn),
		}
	}
	return out
}

// appendSpan appends src to *dst and returns where it landed.
func appendSpan[T any](dst *[]T, src []T) span {
	lo := len(*dst)
	*dst = append(*dst, src...)
	return span{uint32(lo), uint32(len(*dst))}
}

// putLevels appends ls, whose edges land in f's arrays first: those are
// sized exactly, so the copies' slices of them stay valid.
func (f *frozen) putLevels(ls []levelEdges) span {
	lo := len(f.levels)
	for _, l := range ls {
		f.levels = append(f.levels, levelEdges{level: l.level, edges: f.edges(appendSpan(&f.nodes, l.edges))})
	}
	return span{uint32(lo), uint32(len(f.levels))}
}

// arena owns every record one query decoded, one visit.Slab per element
// type.
type arena struct {
	recs    visit.Slab[diskRec]
	members visit.Slab[trajectory.ObjectID]
	nodes   visit.Slab[dn.NodeID]
	levels  visit.Slab[levelEdges]
}

func (a *arena) reset() {
	a.recs.Reset()
	a.members.Reset()
	a.nodes.Reset()
	a.levels.Reset()
}

// encodeVertex appends the record of graph vertex id; num maps graph IDs to
// index IDs.
func encodeVertex(enc *pagefile.Encoder, g *dn.Graph, id dn.NodeID, num []dn.NodeID) {
	nd := &g.Nodes[id]
	enc.Uvarint(uint64(nd.Start))
	enc.Uvarint(uint64(nd.End - nd.Start)) // End ≥ Start
	encodeMembersDelta(enc, g.Members(id))
	self := num[id]
	encodeEdges(enc, self, g.Out(id), num)
	encodeEdges(enc, self, g.In(id), num)
	// Long edges, ascending resolution; only levels with targets.
	encodeLongs(enc, self, num, g.Resolutions, func(L int) []dn.NodeID { return g.LongOut(id, L) })
	encodeLongs(enc, self, num, g.Resolutions, func(L int) []dn.NodeID { return g.LongIn(id, L) })
}

// encodeMembersDelta writes a sorted member posting as zig-zag deltas.
func encodeMembersDelta(enc *pagefile.Encoder, members []trajectory.ObjectID) {
	enc.Uvarint(uint64(len(members)))
	prev := int64(0)
	for _, m := range members {
		enc.Varint(int64(m) - prev) // members sorted ascending: small gaps
		prev = int64(m)
	}
}

func encodeLongs(enc *pagefile.Encoder, self dn.NodeID, num []dn.NodeID, resolutions []int, edgesOf func(int) []dn.NodeID) {
	levels := 0
	for _, L := range resolutions {
		if len(edgesOf(L)) > 0 {
			levels++
		}
	}
	enc.Uvarint(uint64(levels))
	for _, L := range resolutions {
		es := edgesOf(L)
		if len(es) == 0 {
			continue
		}
		enc.Uvarint(uint64(L))
		encodeEdges(enc, self, es, num)
	}
}

// encodeEdges writes the index IDs of graph vertices edges as zig-zag
// deltas, the first from self's.
func encodeEdges(enc *pagefile.Encoder, self dn.NodeID, edges []dn.NodeID, num []dn.NodeID) {
	enc.Uvarint(uint64(len(edges)))
	prev := int64(self)
	for _, v := range edges {
		enc.Varint(int64(num[v]) - prev) // neighbours cluster: small deltas
		prev = int64(num[v])
	}
}

// Counts are checked against the bytes left at the true minimum encoding of
// an element before slab space is reserved from them: a forged count can
// make a decode fail, never make it reserve more than the record's own size.
const (
	minMember = 1 // one zig-zag delta
	minEdge   = 1 // one zig-zag delta
	minLevel  = 2 // resolution + an empty edge list
)

// readCount reads an element count and fails the decoder unless that many
// elements of at least minBytes each fit in what is left.
func readCount(dec *pagefile.Decoder, minBytes int, what string) int {
	n := dec.Uvarint()
	if dec.Err() != nil {
		return 0
	}
	if n > uint64(dec.Remaining()/minBytes) {
		dec.Failf("reachgraph: implausible %s count %d with %d bytes left", what, n, dec.Remaining())
		return 0
	}
	return int(n)
}

// decodeHeader reads the span and the member posting of a record into v,
// validating every member against the object-ID space (members index the
// epoch-stamped object sets directly). The decoder is left at the first
// edge section.
func decodeHeader(dec *pagefile.Decoder, numObjects int, v *vertexRec, a *arena) {
	v.start = trajectory.Tick(dec.Uvarint())
	v.end = v.start + trajectory.Tick(dec.Uvarint())
	nm := readCount(dec, minMember, "member")
	v.members = a.members.Alloc(nm)
	prev := int64(0)
	for i := range v.members {
		prev += dec.Varint()
		if prev < 0 || prev >= int64(numObjects) {
			dec.Failf("reachgraph: member %d outside [0, %d)", prev, numObjects)
			return
		}
		v.members[i] = trajectory.ObjectID(prev)
	}
}

// decodeEdges reads one edge list of the record of vertex self, validating
// every target against the index's node-ID space: decoded IDs index the
// epoch-stamped visited arrays directly, so an out-of-range value must
// surface as a decode error (the documented corruption behavior), never as
// a panic.
func decodeEdges(dec *pagefile.Decoder, self dn.NodeID, numNodes int, a *arena) []dn.NodeID {
	nodes := a.nodes.Alloc(readCount(dec, minEdge, "edge"))
	prev := int64(self)
	for i := range nodes {
		prev += dec.Varint()
		if prev < 0 || prev >= int64(numNodes) {
			dec.Failf("reachgraph: edge target %d outside [0, %d)", prev, numNodes)
			return nil
		}
		nodes[i] = dn.NodeID(prev)
	}
	return nodes
}

func decodeLongs(dec *pagefile.Decoder, self dn.NodeID, numNodes int, a *arena) []levelEdges {
	ls := a.levels.Alloc(readCount(dec, minLevel, "level"))
	for i := range ls {
		L := int(dec.Uvarint())
		ls[i] = levelEdges{level: L, edges: decodeEdges(dec, self, numNodes, a)}
	}
	return ls
}

// skipSection steps dec over section s of a record. Only the counts are
// checked: a section is validated when it is decoded, not when it is
// stepped over.
func skipSection(dec *pagefile.Decoder, s int) {
	if s < firstLongSection {
		skipEdges(dec)
		return
	}
	for levels := readCount(dec, minLevel, "level"); levels > 0 && dec.Err() == nil; levels-- {
		dec.SkipVarints(1) // the resolution
		skipEdges(dec)
	}
}

func skipEdges(dec *pagefile.Decoder) {
	dec.SkipVarints(readCount(dec, minEdge, "edge"))
}
