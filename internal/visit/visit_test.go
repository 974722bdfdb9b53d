package visit

import (
	"testing"
)

func TestSetVisitAndReset(t *testing.T) {
	var s Set
	s.Reset(10)
	if !s.Visit(3) || s.Visit(3) {
		t.Fatal("first Visit must report new, second must not")
	}
	if !s.Has(3) || s.Has(4) {
		t.Fatal("Has disagrees with Visit")
	}
	s.Reset(10)
	if s.Has(3) {
		t.Fatal("Reset did not empty the set")
	}
	s.Reset(100) // grow
	if s.Has(3) || s.Has(99) {
		t.Fatal("grown set not empty")
	}
	if !s.Visit(99) {
		t.Fatal("grown range not usable")
	}
}

func TestSetEpochWraparound(t *testing.T) {
	var s Set
	s.Reset(4)
	s.Visit(1)
	s.epoch = ^uint32(0) // force the next Reset to wrap
	s.stamps[2] = 0      // would alias epoch 0 if wrap were unhandled
	s.Reset(4)
	if s.Has(1) || s.Has(2) {
		t.Fatal("wraparound leaked stale visits")
	}
	if !s.Visit(2) {
		t.Fatal("post-wrap Visit broken")
	}
}

func TestTicks(t *testing.T) {
	var tk Ticks
	tk.Reset(8)
	if _, ok := tk.Get(5); ok {
		t.Fatal("fresh table not empty")
	}
	tk.Set(5, -7)
	if v, ok := tk.Get(5); !ok || v != -7 {
		t.Fatalf("Get(5) = %d, %v", v, ok)
	}
	tk.Set(5, 9)
	if v, _ := tk.Get(5); v != 9 {
		t.Fatal("overwrite lost")
	}
	tk.Reset(8)
	if _, ok := tk.Get(5); ok {
		t.Fatal("Reset did not empty the table")
	}
}

func TestTable(t *testing.T) {
	var tb Table[[]byte]
	tb.Reset(4)
	tb.Set(2, []byte("abc"))
	if v, ok := tb.Get(2); !ok || string(v) != "abc" {
		t.Fatalf("Get(2) = %q, %v", v, ok)
	}
	if _, ok := tb.Get(1); ok {
		t.Fatal("unset id present")
	}
	tb.Reset(4)
	if _, ok := tb.Get(2); ok {
		t.Fatal("Reset did not empty the table")
	}
}

func TestDequeFIFOAndLIFO(t *testing.T) {
	var q Deque[int]
	for i := 0; i < 10; i++ {
		q.PushBack(i)
	}
	for want := 0; want < 5; want++ {
		if v, ok := q.PopFront(); !ok || v != want {
			t.Fatalf("PopFront = %d, %v; want %d", v, ok, want)
		}
	}
	for want := 9; want >= 5; want-- {
		if v, ok := q.PopBack(); !ok || v != want {
			t.Fatalf("PopBack = %d, %v; want %d", v, ok, want)
		}
	}
	if _, ok := q.PopFront(); ok || q.Len() != 0 {
		t.Fatal("deque not empty")
	}
}

// TestDequeWrapGrowth exercises growth while the ring is wrapped, the case
// a naive copy gets wrong.
func TestDequeWrapGrowth(t *testing.T) {
	var q Deque[int]
	push := 0
	for i := 0; i < 3; i++ {
		q.PushBack(push)
		push++
	}
	q.PopFront() // head now > 0
	for i := 0; i < 40; i++ {
		q.PushBack(push)
		push++
	}
	want := 1
	for q.Len() > 0 {
		v, _ := q.PopFront()
		if v != want {
			t.Fatalf("got %d, want %d", v, want)
		}
		want++
	}
	if want != push {
		t.Fatalf("drained %d elements, want %d", want-1, push-1)
	}
}

func TestDequeResetKeepsCapacity(t *testing.T) {
	var q Deque[int]
	for i := 0; i < 100; i++ {
		q.PushBack(i)
	}
	cap0 := len(q.buf)
	q.Reset()
	if q.Len() != 0 || len(q.buf) != cap0 {
		t.Fatal("Reset must empty without shrinking")
	}
}

func TestPoolRecycles(t *testing.T) {
	type scratch struct{ s Set }
	allocs := 0
	p := NewPool(func() *scratch { allocs++; return &scratch{} })
	a := p.Get()
	a.s.Reset(10)
	a.s.Visit(1)
	p.Put(a)
	b := p.Get()
	b.s.Reset(10)
	if b.s.Has(1) {
		t.Fatal("recycled scratch not reset")
	}
	p.Put(b)
	if allocs < 1 {
		t.Fatal("constructor never ran")
	}
}

// TestSteadyStateNoAllocs pins the whole point of the package: after the
// first use, Reset+traverse cycles over pooled scratch allocate nothing.
func TestSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts only hold un-instrumented")
	}
	type scratch struct {
		set Set
		tk  Ticks
		q   Deque[int32]
	}
	p := NewPool(func() *scratch { return &scratch{} })
	cycle := func() {
		sc := p.Get()
		sc.set.Reset(256)
		sc.tk.Reset(256)
		sc.q.Reset()
		for i := 0; i < 256; i++ {
			sc.set.Visit(i)
			sc.tk.Set(i, int32(i))
			sc.q.PushBack(int32(i))
		}
		for sc.q.Len() > 0 {
			sc.q.PopFront()
		}
		p.Put(sc)
	}
	cycle() // warm: size the arrays
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("steady-state cycle allocates %.1f times", n)
	}
}

// TestSlabKeepsEarlierSlicesAndCapacity pins the two properties the arenas
// rest on: growing a slab does not disturb what it handed out before, and
// a reset slab serves the same demand again without allocating.
func TestSlabKeepsEarlierSlicesAndCapacity(t *testing.T) {
	var s Slab[int32]
	var handed [][]int32
	for i := 0; i < 300; i++ {
		part := s.Alloc(i % 7)
		for j := range part {
			part[j] = int32(i)
		}
		handed = append(handed, part)
	}
	for i, part := range handed {
		if len(part) != i%7 || cap(part) != len(part) {
			t.Fatalf("slice %d: len %d cap %d, want both %d", i, len(part), cap(part), i%7)
		}
		for _, v := range part {
			if v != int32(i) {
				t.Fatalf("slice %d was overwritten by a later alloc", i)
			}
		}
	}
	replay := func() {
		s.Reset()
		for i := 0; i < 300; i++ {
			s.Alloc(i % 7)
		}
	}
	replay() // the last array may hold less than the whole demand once
	replay()
	if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
		t.Errorf("a warm slab allocates %.1f times per replay", allocs)
	}
}
