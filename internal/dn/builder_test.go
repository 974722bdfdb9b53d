package dn

import (
	"slices"
	"testing"

	"streach/internal/contact"
	"streach/internal/stjoin"
	"streach/internal/testgen"
	"streach/internal/trajectory"
)

// TestBuilderIncrementalMatchesBatch feeds the network instant by instant
// and compares the result with the batch build.
func TestBuilderIncrementalMatchesBatch(t *testing.T) {
	net := testgen.Spec{Objects: 35, Ticks: 240, Seed: 137}.Network()
	want := Build(net)

	b := NewBuilder(net.NumObjects)
	feed(b, net, 0, trajectory.Tick(net.NumTicks-1))
	compareGraphs(t, b.Graph(), want)
}

// TestBuilderResumeAfterSnapshot verifies the §6.2.1.2 incremental
// contract: take a graph snapshot mid-stream (validate it, even augment
// it), keep appending instants, and end up with the same graph as batch
// building the full network.
func TestBuilderResumeAfterSnapshot(t *testing.T) {
	net := testgen.Spec{Objects: 30, Ticks: 200, Seed: 139}.Network()
	want := Build(net)

	b := NewBuilder(net.NumObjects)
	half := trajectory.Tick(net.NumTicks / 2)
	feed(b, net, 0, half-1)
	mid := b.Graph()
	if err := mid.Validate(); err != nil {
		t.Fatalf("mid-stream graph invalid: %v", err)
	}
	if mid.NumTicks != int(half) {
		t.Fatalf("mid-stream ticks: %d, want %d", mid.NumTicks, half)
	}
	if err := mid.Augment([]int{2, 4}); err != nil {
		t.Fatalf("mid-stream augment: %v", err)
	}
	feed(b, net, half, trajectory.Tick(net.NumTicks-1))
	got := b.Graph()
	if got.Resolutions != nil {
		t.Fatal("resuming did not invalidate long edges")
	}
	compareGraphs(t, got, want)
	if err := got.Validate(); err != nil {
		t.Fatalf("final graph invalid: %v", err)
	}
}

// TestBuilderEmptyDomains pins the degenerate cases.
func TestBuilderEmptyDomains(t *testing.T) {
	b := NewBuilder(0)
	b.AddInstant(nil)
	b.AddInstant(nil)
	g := b.Graph()
	if g.NumTicks != 2 || len(g.Nodes) != 0 {
		t.Fatalf("zero-object graph: ticks=%d nodes=%d", g.NumTicks, len(g.Nodes))
	}
	b2 := NewBuilder(3)
	if g2 := b2.Graph(); g2.NumTicks != 0 || len(g2.Nodes) != 0 {
		t.Fatalf("zero-tick graph: ticks=%d nodes=%d", g2.NumTicks, len(g2.Nodes))
	}
}

// TestBuilderSnapshotIsStable takes a snapshot mid-stream and keeps
// feeding the builder: the snapshot must still equal a second builder's
// graph over the prefix alone, even where a run open at the snapshot went
// on to be extended.
func TestBuilderSnapshotIsStable(t *testing.T) {
	net := testgen.Spec{Objects: 30, Ticks: 200, Seed: 139}.Network()
	half := trajectory.Tick(net.NumTicks / 2)
	b := NewBuilder(net.NumObjects)
	feed(b, net, 0, half-1)
	mid := b.Graph()
	feed(b, net, half, trajectory.Tick(net.NumTicks-1))
	full := b.Graph()

	prefix := NewBuilder(net.NumObjects)
	feed(prefix, net, 0, half-1)
	compareGraphs(t, mid, prefix.Graph())
	if err := mid.Validate(); err != nil {
		t.Fatalf("snapshot invalid after feeding on: %v", err)
	}
	extended := 0
	for id := range mid.Nodes {
		if full.Nodes[id].End != mid.Nodes[id].End {
			extended++
		}
	}
	if extended == 0 {
		t.Fatal("no run open at the snapshot was extended; the test proves nothing")
	}
}

// TestBuildAllocations pins that Build allocates per array, not per node:
// a graph's lists live in a fixed number of CSR arrays, so the count stays
// far below one allocation per hundred nodes.
func TestBuildAllocations(t *testing.T) {
	net := testgen.Spec{Objects: 400, Ticks: 1000, Seed: 17}.Network()
	g := Build(net)
	allocs := testing.AllocsPerRun(3, func() { Build(net) })
	if limit := float64(len(g.Nodes) / 100); allocs >= limit {
		t.Fatalf("Build made %.0f allocations for %d nodes, want < %.0f", allocs, len(g.Nodes), limit)
	}
}

// BenchmarkDNBuild is dn.Build alone on the benchmark's D1 shape, RWP
// 400 × 1000: the reduction every graph index and every live seal runs
// before its own build.
func BenchmarkDNBuild(b *testing.B) {
	net := testgen.Spec{Objects: 400, Ticks: 1000, Seed: 17}.Network()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(net)
	}
}

func feed(b *Builder, net *contact.Network, lo, hi trajectory.Tick) {
	net.Snapshot(lo, hi, func(_ trajectory.Tick, pairs []stjoin.Pair) bool {
		b.AddInstant(pairs)
		return true
	})
}

func compareGraphs(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumTicks != want.NumTicks || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("shape mismatch: got (%d ticks, %d nodes), want (%d, %d)",
			got.NumTicks, len(got.Nodes), want.NumTicks, len(want.Nodes))
	}
	for i := range want.Nodes {
		id, a, b := NodeID(i), &got.Nodes[i], &want.Nodes[i]
		if a.Start != b.Start || a.End != b.End {
			t.Fatalf("node %d span: got [%d,%d], want [%d,%d]", id, a.Start, a.End, b.Start, b.End)
		}
		if !slices.Equal(got.Members(id), want.Members(id)) {
			t.Fatalf("node %d members differ", id)
		}
		if !slices.Equal(got.Out(id), want.Out(id)) {
			t.Fatalf("node %d out edges differ", id)
		}
		if !slices.Equal(got.In(id), want.In(id)) {
			t.Fatalf("node %d in edges differ", id)
		}
	}
	for o := trajectory.ObjectID(0); int(o) < want.NumObjects; o++ {
		if !slices.Equal(got.RunsOf(o), want.RunsOf(o)) {
			t.Fatalf("object %d runs differ", o)
		}
	}
}

// BenchmarkAugment is long-edge augmentation alone at the paper's levels
// 2…32, forward and reverse, on the reduced graph of RWP 400 × 1000: the
// part of every ReachGraph build that composes levels. One op is one
// Augment, which replaces the levels of the op before.
func BenchmarkAugment(b *testing.B) {
	g := Build(testgen.Spec{Objects: 400, Ticks: 1000, Seed: 17}.Network())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Augment(allResolutions); err != nil {
			b.Fatal(err)
		}
	}
}
