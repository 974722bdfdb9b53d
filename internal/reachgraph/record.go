// Vertex records: the on-page layout, and its lazy decode into the
// cursor's arena.
//
// A record is a header (span), the member posting, and four edge sections
// in fixed order — out, in, longOut, longIn. The vertex id is not stored:
// the partition directory that leads to the record names it. Decoding is
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

// edgeList is a neighbour list with its parallel list of partition hints,
// the partitions holding the neighbours. The memory index leaves the hints
// empty: every hint is then -1.
type edgeList struct {
	nodes []dn.NodeID
	parts []int32
}

// entry returns neighbour i as a traversal entry.
func (l edgeList) entry(i int) entry {
	if len(l.parts) == 0 {
		return entry{l.nodes[i], -1}
	}
	return entry{l.nodes[i], l.parts[i]}
}

// levelEdges is one long-edge resolution's target list. Records carry at
// most a handful of levels, so a sorted slice beats a map on both decode
// allocations and lookup time.
type levelEdges struct {
	level int
	edges edgeList
}

// levelEdgesAt returns the edges at resolution L, or an empty list.
func levelEdgesAt(ls []levelEdges, L int) edgeList {
	for i := range ls {
		if ls[i].level == L {
			return ls[i].edges
		}
	}
	return edgeList{}
}

// vertexRec is a vertex record as the traversals read it: on disk decoded
// into a cursor's arena (diskRec), in memory one record per query whose
// slices are views of the graph's own (memAccess). It carries no decode
// state: that lives in diskRec.
type vertexRec struct {
	id         dn.NodeID
	start, end trajectory.Tick
	members    []trajectory.ObjectID
	out, in    edgeList
	longOut    []levelEdges // ascending resolution
	longIn     []levelEdges
}

// diskRec is a vertex record read from a partition blob: the decoded view
// plus what decoding the rest on demand needs. It lives in the arena of the
// cursor that read it, and a query only ever sees it after its own read of
// the partition has verified the pages the record's bytes are on
// (cursor.vertex).
type diskRec struct {
	vertexRec
	raw   []byte              // the record's bytes, a view of the partition blob
	off   [numSections]uint32 // where each section starts in raw
	part  int32               // the partition holding it
	have  uint8               // sections decoded so far
	known uint8               // off[:known] are valid; at least 1 once decoded
}

// arena owns every decoded record of one cursor, one visit.Slab per element
// type.
type arena struct {
	recs    visit.Slab[diskRec]
	members visit.Slab[trajectory.ObjectID]
	nodes   visit.Slab[dn.NodeID]
	parts   visit.Slab[int32] // the hints of nodes, allocated in step with it
	levels  visit.Slab[levelEdges]
}

func (a *arena) reset() {
	a.recs.Reset()
	a.members.Reset()
	a.nodes.Reset()
	a.parts.Reset()
	a.levels.Reset()
}

// encodeVertex appends one vertex record. Every referenced neighbour is
// stored as a (node, partition) pair so traversal is self-routing.
func encodeVertex(enc *pagefile.Encoder, g *dn.Graph, id dn.NodeID, partOf []int32) {
	nd := &g.Nodes[id]
	enc.Uvarint(uint64(nd.Start))
	enc.Uvarint(uint64(nd.End - nd.Start)) // End ≥ Start
	encodeMembersDelta(enc, nd.Members)
	encodeEdges(enc, nd.Out, partOf)
	encodeEdges(enc, nd.In, partOf)
	// Long edges, ascending resolution; only levels with targets.
	encodeLongs(enc, partOf, g.Resolutions, func(L int) []dn.NodeID { return g.LongOut(id, L) })
	encodeLongs(enc, partOf, g.Resolutions, func(L int) []dn.NodeID { return g.LongIn(id, L) })
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

func encodeLongs(enc *pagefile.Encoder, partOf []int32, resolutions []int, edgesOf func(int) []dn.NodeID) {
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
		encodeEdges(enc, es, partOf)
	}
}

func encodeEdges(enc *pagefile.Encoder, edges []dn.NodeID, partOf []int32) {
	enc.Uvarint(uint64(len(edges)))
	prevNode, prevPart := int64(0), int64(0)
	for _, v := range edges {
		enc.Varint(int64(v) - prevNode) // neighbours cluster: small deltas
		enc.Varint(int64(partOf[v]) - prevPart)
		prevNode, prevPart = int64(v), int64(partOf[v])
	}
}

// Counts are checked against the bytes left at the true minimum encoding of
// an element before slab space is reserved from them: a forged count can
// make a decode fail, never make it reserve more than the record's own size.
const (
	minMember = 1 // one zig-zag delta
	minEdge   = 2 // node delta + partition delta
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

// decodeEdges reads one edge list, validating every target against the
// graph's node-ID space: decoded IDs index the epoch-stamped visited
// arrays directly, so an out-of-range value must surface as a decode
// error (the documented corruption behavior), never as a panic.
func decodeEdges(dec *pagefile.Decoder, numNodes int, a *arena) edgeList {
	n := readCount(dec, minEdge, "edge")
	nodes, parts := a.nodes.Alloc(n), a.parts.Alloc(n)
	parts = parts[:len(nodes)]
	prevNode, prevPart := int64(0), int64(0)
	for i := range nodes {
		prevNode += dec.Varint()
		prevPart += dec.Varint()
		if prevNode < 0 || prevNode >= int64(numNodes) {
			dec.Failf("reachgraph: edge target %d outside [0, %d)", prevNode, numNodes)
			return edgeList{}
		}
		nodes[i], parts[i] = dn.NodeID(prevNode), int32(prevPart)
	}
	return edgeList{nodes, parts}
}

func decodeLongs(dec *pagefile.Decoder, numNodes int, a *arena) []levelEdges {
	ls := a.levels.Alloc(readCount(dec, minLevel, "level"))
	for i := range ls {
		L := int(dec.Uvarint())
		ls[i] = levelEdges{level: L, edges: decodeEdges(dec, numNodes, a)}
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
	dec.SkipVarints(2 * readCount(dec, minEdge, "edge"))
}
