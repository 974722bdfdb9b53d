package reachgraph

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// longRunGraph is a network of two objects whose contact toggles every
// tick, so each holds one run per tick: ticks runs apiece, enough to fill
// many anchor groups.
func longRunGraph(ticks int) *dn.Graph {
	b := dn.NewBuilder(2)
	for tk := 0; tk < ticks; tk++ {
		var pairs []stjoin.Pair
		if tk%2 == 0 {
			pairs = append(pairs, stjoin.MakePair(0, 1))
		}
		b.AddInstant(pairs)
	}
	return b.Graph()
}

// runAt is FindVertex by a linear scan of the graph's own run list.
func runAt(g *dn.Graph, partOf func(dn.NodeID) int32, o trajectory.ObjectID, t trajectory.Tick) (dn.NodeID, int32, bool) {
	for _, id := range g.RunsOf(o) {
		if g.Nodes[id].End >= t {
			return id, partOf(id), true
		}
	}
	return dn.Invalid, -1, false
}

// partitionOf maps every vertex of ix to the partition holding it, read
// back from the partition blobs' directories.
func partitionOf(t testing.TB, ix *Index) func(dn.NodeID) int32 {
	t.Helper()
	of := make([]int32, ix.numNodes)
	sc := ix.begin(nil)
	defer ix.pool.Put(sc)
	for p := range ix.partRefs {
		if err := sc.cur.loadPartition(int32(p)); err != nil {
			t.Fatal(err)
		}
	}
	for id := range of {
		of[id] = -1
		for p := range ix.partRefs {
			if _, _, err := sc.cur.parts[p].find(dn.NodeID(id), &sc.cur.checked); err == nil {
				of[id] = int32(p)
				break
			}
		}
	}
	return func(id dn.NodeID) int32 { return of[id] }
}

// TestFindVertexMatchesRunList holds the anchored search to a linear scan
// of every object's runs, at every tick of the domain and one past it, on
// a mobility fixture and on run lists spanning dozens of anchor groups.
func TestFindVertexMatchesRunList(t *testing.T) {
	for _, g := range []*dn.Graph{newFixture(t, 30, 300, 71).g, longRunGraph(1200)} {
		ix, err := Build(g, Params{PoolPages: -1})
		if err != nil {
			t.Fatal(err)
		}
		partOf := partitionOf(t, ix)
		for o := 0; o < g.NumObjects; o++ {
			for tk := 0; tk <= g.NumTicks; tk++ {
				node, part, err := ix.findVertex(trajectory.ObjectID(o), trajectory.Tick(tk), nil)
				wantNode, wantPart, ok := runAt(g, partOf, trajectory.ObjectID(o), trajectory.Tick(tk))
				if ok != (err == nil) || node != wantNode || part != wantPart {
					t.Fatalf("object %d at %d: (%d, %d, %v), linear scan (%d, %d, found %v)",
						o, tk, node, part, err, wantNode, wantPart, ok)
				}
			}
		}
	}
}

// dirHeader returns the run count of a directory blob and where its
// anchors begin.
func dirHeader(t testing.TB, blob []byte) (n uint64, at int) {
	t.Helper()
	n, w := binary.Uvarint(blob[1:])
	if w <= 0 {
		t.Fatal("malformed directory header")
	}
	return n, 1 + w
}

// withCount is blob with its run count replaced by n.
func withCount(t testing.TB, blob []byte, n uint64) []byte {
	t.Helper()
	_, at := dirHeader(t, blob)
	out := append([]byte{blob[0]}, binary.AppendUvarint(nil, n)...)
	return append(out, blob[at:]...)
}

// TestForgedRunDirectoriesFail installs run directories that pass the
// store's checksum but contradict themselves — the forms a table names,
// and every anchor field nudged by one — and checks that FindVertex fails
// loudly on them: no lookup panics, each one either errs or still answers
// what the intact directory answers, and at least one errs. The anchored
// directory holds 200 runs (seven groups); the lone group, 20.
func TestForgedRunDirectoriesFail(t *testing.T) {
	for _, ticks := range []int{200, 20} {
		g := longRunGraph(ticks)
		ix, err := Build(g, Params{PoolPages: -1})
		if err != nil {
			t.Fatal(err)
		}
		intact, err := pagefile.Whole(ix.store.ReadBlob(ix.dirRefs[0], nil))
		if err != nil {
			t.Fatal(err)
		}
		intact = append([]byte(nil), intact...)
		n, at := dirHeader(t, intact)
		anchors := 0
		if n > runStride {
			anchors = int(n+runStride-1) / runStride
		}
		anchor := func(b []byte, k, field int) []byte { return b[at+k*runAnchorBytes+4*field:] }
		nudge := func(k, field int, by uint32) func(b []byte) []byte {
			return func(b []byte) []byte {
				binary.LittleEndian.PutUint32(anchor(b, k, field), binary.LittleEndian.Uint32(anchor(b, k, field))+by)
				return b
			}
		}
		type forgery struct {
			name  string
			forge func(b []byte) []byte
		}
		forgeries := []forgery{
			{"n one short", func(b []byte) []byte { return withCount(t, b, n-1) }},
			{"n one over", func(b []byte) []byte { return withCount(t, b, n+1) }},
			{"n implies one group more", func(b []byte) []byte { return withCount(t, b, n+runStride) }},
			{"absurd n", func(b []byte) []byte { return withCount(t, b, 1<<62) }},
			{"a byte appended", func(b []byte) []byte { return append(b, 1) }},
			{"entries cut off", func(b []byte) []byte { return withCount(t, b[:at], n) }},
		}
		if anchors > 0 {
			end := func(b []byte, k int) uint32 { return binary.LittleEndian.Uint32(anchor(b, k, 0)) }
			forgeries = append(forgeries, []forgery{
				{"n implies one group fewer", func(b []byte) []byte { return withCount(t, b, n-runStride) }},
				{"anchor offset past the body", func(b []byte) []byte {
					binary.LittleEndian.PutUint32(anchor(b, 1, 3), uint32(len(b)))
					return b
				}},
				{"anchor offset before its predecessor", func(b []byte) []byte {
					binary.LittleEndian.PutUint32(anchor(b, 2, 3), binary.LittleEndian.Uint32(anchor(b, 0, 3)))
					return b
				}},
				{"anchor ends do not ascend", func(b []byte) []byte {
					binary.LittleEndian.PutUint32(anchor(b, 1, 0), end(b, 0)-1)
					return b
				}},
				{"last anchor end lowered", func(b []byte) []byte {
					binary.LittleEndian.PutUint32(anchor(b, anchors-1, 0), end(b, anchors-2))
					return b
				}},
				{"anchor node shifted", nudge(1, 1, 2)},
				{"last anchor partition shifted", nudge(anchors-1, 2, 1)},
			}...)
			for k := 0; k < anchors; k++ {
				for field, what := range []string{"end", "node", "partition", "offset"} {
					forgeries = append(forgeries, forgery{fmt.Sprintf("anchor %d %s nudged", k, what), nudge(k, field, 1)})
				}
			}
		}
		lookups := func() (nodes []dn.NodeID, parts []int32, errs []error) {
			for tk := 0; tk <= g.NumTicks; tk++ {
				node, part, err := ix.findVertex(0, trajectory.Tick(tk), nil)
				nodes, parts, errs = append(nodes, node), append(parts, part), append(errs, err)
			}
			return nodes, parts, errs
		}
		ref := ix.dirRefs[0]
		wantNodes, wantParts, wantErrs := lookups()
		for _, tc := range forgeries {
			t.Run(fmt.Sprintf("%d runs/%s", n, tc.name), func(t *testing.T) {
				ix.dirRefs[0] = ix.store.AppendBlob(tc.forge(append([]byte(nil), intact...)))
				defer func() { ix.dirRefs[0] = ref }()
				nodes, parts, errs := lookups()
				failed := 0
				for tk := range errs {
					switch {
					case errs[tk] != nil:
						failed++
					case wantErrs[tk] != nil || nodes[tk] != wantNodes[tk] || parts[tk] != wantParts[tk]:
						t.Errorf("tick %d: answered (%d, %d), the intact directory (%d, %d, %v)",
							tk, nodes[tk], parts[tk], wantNodes[tk], wantParts[tk], wantErrs[tk])
					}
				}
				if failed == 0 {
					t.Error("no lookup failed")
				}
			})
		}
	}
}

// linearRun is the reference reading of a run directory: it decodes every
// entry in order, and reports ok only for a well-formed blob — unless there
// is one group, every group of runStride entries, the last one included,
// closed by an anchor holding its last entry's values and the offset past
// it; ends strictly ascending after the first; nothing left over —
// together with the first run whose end is ≥ t (found false when none is).
func linearRun(data []byte, t trajectory.Tick) (node, part int64, found, ok bool) {
	dec := pagefile.NewDecoder(data)
	dec.Format()
	n := dec.Uvarint()
	if dec.Err() != nil || n > uint64(len(data)) {
		return 0, 0, false, false
	}
	anchors := int((n + runStride - 1) / runStride)
	if anchors == 1 {
		anchors = 0
	}
	head := len(data) - dec.Remaining()
	if anchors*runAnchorBytes > dec.Remaining() {
		return 0, 0, false, false
	}
	index, body := data[head:head+anchors*runAnchorBytes], data[head+anchors*runAnchorBytes:]
	dec = pagefile.NewDecoder(body)
	var end, nd, pt int64
	for i := 0; i < int(n); i++ {
		gap := dec.Uvarint()
		if gap == 0 && i > 0 {
			return 0, 0, false, false
		}
		end += int64(gap)
		nd += dec.Varint()
		pt += dec.Varint()
		if !found && end >= int64(t) {
			node, part, found = nd, pt, true
		}
		if anchors > 0 && ((i+1)%runStride == 0 || i+1 == int(n)) {
			a := index[i/runStride*runAnchorBytes:]
			if end != int64(binary.LittleEndian.Uint32(a)) || nd != int64(binary.LittleEndian.Uint32(a[4:])) ||
				pt != int64(binary.LittleEndian.Uint32(a[8:])) || len(body)-dec.Remaining() != int(binary.LittleEndian.Uint32(a[12:])) {
				return 0, 0, false, false
			}
		}
	}
	if dec.Err() != nil || dec.Remaining() != 0 {
		return 0, 0, false, false
	}
	return node, part, found, true
}

// runDirectory is the body of FuzzRunDirectory: findRun must not panic on
// any bytes, and on a well-formed directory it must answer what the linear
// reading answers.
func runDirectory(t *testing.T, data []byte, tick uint32) {
	tk := trajectory.Tick(tick % (1 << 20))
	node, part, err := findRun(data, tk)
	wantNode, wantPart, found, ok := linearRun(data, tk)
	if !ok {
		return
	}
	if found != (err == nil) || err == nil && (node != wantNode || part != wantPart) {
		t.Fatalf("tick %d: findRun (%d, %d, %v), linear reading (%d, %d, found %v)", tk, node, part, err, wantNode, wantPart, found)
	}
}

// runDirectorySeeds are real run directories: a mobility fixture's and the
// long toggled run lists', whose anchors span many groups.
func runDirectorySeeds(t testing.TB) [][]byte {
	var out [][]byte
	for _, g := range []*dn.Graph{newFixture(t, 12, 120, 5).g, longRunGraph(300)} {
		ix, err := Build(g, Params{PoolPages: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range ix.dirRefs {
			blob, err := pagefile.Whole(ix.store.ReadBlob(ref, nil))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, append([]byte(nil), blob...))
		}
	}
	return out
}

// FuzzRunDirectory feeds arbitrary bytes to FindVertex's decoder, seeded
// with real directories: no input may panic it, and every well-formed one
// must be read as a linear scan reads it.
func FuzzRunDirectory(f *testing.F) {
	for i, blob := range runDirectorySeeds(f) {
		f.Add(blob, uint32(i*37))
	}
	f.Fuzz(runDirectory)
}

// TestRunDirectorySeeded is FuzzRunDirectory's body over inputs drawn from
// a fixed seed: real directories with up to four bytes overwritten, cut
// short or left whole, each probed at a random tick; 4000 cases, 400 under
// -short.
func TestRunDirectorySeeded(t *testing.T) {
	seeds := runDirectorySeeds(t)
	cases := 4000
	if testing.Short() {
		cases = 400
	}
	rng := rand.New(rand.NewSource(20261019))
	for i := 0; i < cases; i++ {
		data := append([]byte(nil), seeds[rng.Intn(len(seeds))]...)
		switch rng.Intn(3) {
		case 0:
			for k := rng.Intn(5); k > 0; k-- {
				data[rng.Intn(len(data))] = byte(rng.Intn(256))
			}
		case 1:
			data = data[:rng.Intn(len(data)+1)]
		}
		tick := uint32(rng.Intn(400))
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("case %d: runDirectory(% x, %d)", i, data, tick)
				}
			}()
			runDirectory(t, data, tick)
		}()
	}
}

// BenchmarkFindVertex is FindVertex over a run list of 2048 runs in a pool
// that holds the whole index, at the first run, the middle one and the
// last: one blob read, an anchor search and one group decoded.
func BenchmarkFindVertex(b *testing.B) {
	const ticks = 2048
	ix, err := Build(longRunGraph(ticks), Params{PoolPages: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		at   trajectory.Tick
	}{{"first", 0}, {"middle", ticks / 2}, {"last", ticks - 1}} {
		b.Run(c.name, func(b *testing.B) {
			var acct pagefile.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.findVertex(0, c.at, &acct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
