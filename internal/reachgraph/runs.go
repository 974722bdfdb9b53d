// Run directories: FindVertex's on-disk table (§5.1.3).
//
// Every object has one blob listing its runs in ascending end order, so
// the run covering tick t is the first whose end is ≥ t. The blob is
// searchable in place, like a partition's directory (directory.go):
//
//	version | n uv | anchors | entries
//
// Entry i is (end − previous end) as a uvarint and (node − previous node),
// (partition − previous partition) as zig-zag varints, the previous values
// being 0 before the first entry. The entries fall into groups of
// runStride, and each group has a fixed-width anchor that closes it: the
// end, node and partition of its last entry, and the offset just past it
// in the entry area — which is where the next group starts, from those
// values. A lookup binary-searches the anchors for the first whose end is
// ≥ t and decodes that group alone, at most runStride entries, from the
// anchor before it. The group must end exactly at its anchor with its
// anchor's values, so an anchor that disagrees with the entries — a forged
// offset, end, node or partition, or a count that implies other groups —
// fails every lookup that decodes from it or up to it, instead of
// answering one. A directory of one group — most directories of a short
// time slab — has no anchor: the group starts from zeros, which nothing
// can forge, and must end exactly at the blob's end.
package reachgraph

import (
	"encoding/binary"
	"errors"
	"fmt"

	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/trajectory"
)

const (
	runStride      = 32 // run-directory entries per anchor
	runAnchorBytes = 16 // end, node, partition, offset past the group
	minRunEntry    = 3  // bytes of the shortest entry: three one-byte varints
)

// runWriter serializes run directories; its encoders are reused from one
// object to the next, so writing a directory allocates nothing once they
// have grown.
type runWriter struct {
	blob, anchors, entries *pagefile.Encoder
}

func newRunWriter() *runWriter {
	return &runWriter{
		blob:    pagefile.NewEncoder(1 << 12),
		anchors: pagefile.NewEncoder(1 << 8),
		entries: pagefile.NewEncoder(1 << 12),
	}
}

// encode returns the directory blob of the runs of one object, given in
// ascending end order. The result is valid until the next call.
func (w *runWriter) encode(g *dn.Graph, runs []dn.NodeID, partOf []int32) []byte {
	w.blob.Reset()
	w.anchors.Reset()
	w.entries.Reset()
	anchored := len(runs) > runStride
	end, node, part := int64(0), int64(0), int64(0)
	for i, id := range runs {
		e, p := int64(g.Nodes[id].End), int64(partOf[id])
		w.entries.Uvarint(uint64(e - end)) // ends strictly ascend
		w.entries.Varint(int64(id) - node)
		w.entries.Varint(p - part)
		end, node, part = e, int64(id), p
		if anchored && ((i+1)%runStride == 0 || i+1 == len(runs)) {
			w.anchors.Uint32(uint32(end))
			w.anchors.Uint32(uint32(node))
			w.anchors.Uint32(uint32(part))
			w.anchors.Uint32(uint32(w.entries.Len()))
		}
	}
	w.blob.Format()
	w.blob.Uvarint(uint64(len(runs)))
	w.blob.Raw(w.anchors.Bytes())
	w.blob.Raw(w.entries.Bytes())
	return w.blob.Bytes()
}

// errBadRunGroup reports a run group that does not end exactly at its
// anchor, or, in a directory of one group, at the blob's end.
var errBadRunGroup = errors.New("run group does not end at its anchor")

// findRun returns the node and partition of the first run in the directory
// blob data whose end is ≥ t. It decodes one group of at most runStride
// entries and fails on a group that does not end at its anchor's offset
// with its anchor's values; range checks of the result are the caller's.
func findRun(data []byte, t trajectory.Tick) (node, part int64, err error) {
	dec := pagefile.NewDecoder(data)
	dec.Format()
	n := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return 0, 0, err
	}
	rest := uint64(dec.Remaining())
	if n > rest/minRunEntry {
		return 0, 0, fmt.Errorf("implausible run count %d for %d bytes", n, rest)
	}
	anchors := int((n + runStride - 1) / runStride)
	if anchors == 1 {
		anchors = 0 // a lone group
	}
	// n ≤ rest/3 bounds both terms, so the sum is exact.
	if uint64(anchors*runAnchorBytes)+n*minRunEntry > rest {
		return 0, 0, fmt.Errorf("directory of %d runs truncated (%d bytes)", n, rest)
	}
	head := len(data) - int(rest)
	index := data[head : head+anchors*runAnchorBytes]
	body := data[head+anchors*runAnchorBytes:]
	anchor := func(k int) (end, node, part int64, off uint64) {
		a := index[k*runAnchorBytes:]
		return int64(binary.LittleEndian.Uint32(a)), int64(binary.LittleEndian.Uint32(a[4:])),
			int64(binary.LittleEndian.Uint32(a[8:])), uint64(binary.LittleEndian.Uint32(a[12:]))
	}

	// The group holding t is the first whose closing end is ≥ t.
	lo, hi := 0, anchors
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int64(binary.LittleEndian.Uint32(index[mid*runAnchorBytes:])) < int64(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	group := lo
	if anchors > 0 && group == anchors {
		return 0, 0, fmt.Errorf("no run at tick %d", t)
	}
	end, off := int64(0), uint64(0)
	if group > 0 {
		end, node, part, off = anchor(group - 1)
	}
	wantEnd, wantNode, wantPart, stop := int64(0), int64(0), int64(0), uint64(len(body))
	if anchors > 0 {
		wantEnd, wantNode, wantPart, stop = anchor(group)
	}
	if off > stop || stop > uint64(len(body)) {
		return 0, 0, fmt.Errorf("run group %d at [%d, %d) outside %d entry bytes", group, off, stop, len(body))
	}
	hitNode, hitPart, hit, flat := int64(0), int64(0), false, false
	dec = pagefile.NewDecoder(body[off:stop])
	for i, left := 0, min(runStride, int(n)-group*runStride); i < left; i++ {
		gap := dec.Uvarint()
		flat = flat || gap == 0 && (group > 0 || i > 0) // only the first run may end at 0
		end += int64(gap)
		node += dec.Varint()
		part += dec.Varint()
		if !hit && end >= int64(t) {
			hitNode, hitPart, hit = node, part, true
		}
	}
	if err := dec.Err(); err != nil {
		return 0, 0, err
	}
	if flat || dec.Remaining() != 0 || anchors > 0 && (end != wantEnd || node != wantNode || part != wantPart) {
		return 0, 0, errBadRunGroup
	}
	if !hit { // a lone group ending before t
		return 0, 0, fmt.Errorf("no run at tick %d", t)
	}
	return hitNode, hitPart, nil
}
