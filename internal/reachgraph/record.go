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

// edge references a neighbour vertex together with the partition holding it.
type edge struct {
	node dn.NodeID
	part int32
}

// levelEdges is one long-edge resolution's target list. Records carry at
// most a handful of levels, so a sorted slice beats a map on both decode
// allocations and lookup time.
type levelEdges struct {
	level int
	edges []edge
}

// levelEdgesAt returns the edges at resolution L, or nil.
func levelEdgesAt(ls []levelEdges, L int) []edge {
	for i := range ls {
		if ls[i].level == L {
			return ls[i].edges
		}
	}
	return nil
}

// vertexRec is a vertex record as the traversals read it. Mem holds one per
// node for the life of the engine, so it carries no decode state: that
// lives in diskRec.
type vertexRec struct {
	id         dn.NodeID
	start, end trajectory.Tick
	members    []trajectory.ObjectID
	out, in    []edge
	longOut    []levelEdges // ascending resolution
	longIn     []levelEdges
}

// diskRec is a vertex record read from a partition blob: the decoded view
// plus what decoding the rest on demand needs. It lives in the arena of the
// cursor that read it, and a query only ever sees it after its own ReadBlob
// has checksummed the partition the bytes are in (cursor.vertex).
type diskRec struct {
	vertexRec
	raw   []byte              // the record's bytes, a view of the partition blob
	off   [numSections]uint32 // where each section starts in raw
	part  int32               // the partition holding it
	have  uint8               // sections decoded so far
	known uint8               // off[:known] are valid; at least 1 once decoded
}

// slab hands out slices of one backing array and takes them all back at
// reset, keeping the capacity: the allocator behind decoded records. When
// the array is full a larger one replaces it — slices handed out earlier
// keep the old array alive until the reset — so after a few queries the
// slab has reached the workload's high-water mark and allocates nothing.
type slab[T any] struct{ buf []T }

func (s *slab[T]) reset() { s.buf = s.buf[:0] }

// alloc returns n elements holding whatever an earlier query left there;
// the caller overwrites all of them.
func (s *slab[T]) alloc(n int) []T {
	if n > cap(s.buf)-len(s.buf) {
		s.buf = make([]T, 0, max(2*cap(s.buf), n, 64))
	}
	lo := len(s.buf)
	s.buf = s.buf[:lo+n]
	return s.buf[lo : lo+n : lo+n]
}

// arena owns every decoded record of one cursor.
type arena struct {
	recs    slab[diskRec]
	members slab[trajectory.ObjectID]
	edges   slab[edge]
	levels  slab[levelEdges]
}

func (a *arena) reset() {
	a.recs.reset()
	a.members.reset()
	a.edges.reset()
	a.levels.reset()
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
	v.members = a.members.alloc(nm)
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
func decodeEdges(dec *pagefile.Decoder, numNodes int, a *arena) []edge {
	out := a.edges.alloc(readCount(dec, minEdge, "edge"))
	prevNode, prevPart := int64(0), int64(0)
	for i := range out {
		prevNode += dec.Varint()
		prevPart += dec.Varint()
		if prevNode < 0 || prevNode >= int64(numNodes) {
			dec.Failf("reachgraph: edge target %d outside [0, %d)", prevNode, numNodes)
			return nil
		}
		out[i] = edge{node: dn.NodeID(prevNode), part: int32(prevPart)}
	}
	return out
}

func decodeLongs(dec *pagefile.Decoder, numNodes int, a *arena) []levelEdges {
	ls := a.levels.alloc(readCount(dec, minLevel, "level"))
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
