// Package visit provides the allocation-free working state of the query
// hot path: visited sets, per-node value tables and frontier queues over
// dense integer ID spaces (object IDs, graph node IDs, grid cell IDs).
//
// All structures are epoch-stamped: Reset bumps a generation counter
// instead of clearing memory, so between queries a traversal pays O(1) to
// start fresh while its backing arrays — sized once to the dataset's ID
// space — are reused. Engines keep one scratch value per concurrent query
// in a Pool (a typed sync.Pool), which is what makes steady-state query
// evaluation allocate nothing: the hot path's maps and slices of the
// original implementation all live here now.
//
// None of the types are safe for concurrent use; a scratch value belongs
// to exactly one query at a time (the Pool enforces the handoff).
package visit

import "sync"

// Set is an epoch-stamped visited set over dense IDs in [0, n).
type Set struct {
	stamps []uint32
	epoch  uint32
}

// Reset prepares the set for IDs in [0, n), emptying it in O(1) (O(n) only
// when growing the backing array or on epoch wraparound).
func (s *Set) Reset(n int) {
	if n > len(s.stamps) {
		s.stamps = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(s.stamps)
		s.epoch = 1
	}
}

// Visit marks id visited and reports whether it was new.
func (s *Set) Visit(id int) bool {
	if s.stamps[id] == s.epoch {
		return false
	}
	s.stamps[id] = s.epoch
	return true
}

// Has reports whether id has been visited since the last Reset.
func (s *Set) Has(id int) bool { return s.stamps[id] == s.epoch }

// Ticks is an epoch-stamped map from dense IDs to an int32 value (arrival
// ticks, injection bounds), the scratch behind the per-direction visited
// maps of the bidirectional traversals.
type Ticks struct {
	stamps []uint32
	vals   []int32
	epoch  uint32
}

// Reset prepares the table for IDs in [0, n); see Set.Reset.
func (t *Ticks) Reset(n int) {
	if n > len(t.stamps) {
		t.stamps = make([]uint32, n)
		t.vals = make([]int32, n)
		t.epoch = 0
	}
	t.epoch++
	if t.epoch == 0 {
		clear(t.stamps)
		t.epoch = 1
	}
}

// Get returns the value recorded for id and whether one exists.
func (t *Ticks) Get(id int) (int32, bool) {
	if t.stamps[id] != t.epoch {
		return 0, false
	}
	return t.vals[id], true
}

// Set records v for id.
func (t *Ticks) Set(id int, v int32) {
	t.stamps[id] = t.epoch
	t.vals[id] = v
}

// Table is an epoch-stamped map from dense IDs to arbitrary values — the
// replacement for the per-query decoded-record maps. Values of dead epochs
// are kept until overwritten (they pin no more memory than the live query
// working set did).
type Table[V any] struct {
	stamps []uint32
	vals   []V
	epoch  uint32
}

// Reset prepares the table for IDs in [0, n); see Set.Reset.
func (t *Table[V]) Reset(n int) {
	if n > len(t.stamps) {
		t.stamps = make([]uint32, n)
		t.vals = make([]V, n)
		t.epoch = 0
	}
	t.epoch++
	if t.epoch == 0 {
		clear(t.stamps)
		t.epoch = 1
	}
}

// Get returns the value recorded for id and whether one exists.
func (t *Table[V]) Get(id int) (V, bool) {
	if t.stamps[id] != t.epoch {
		var zero V
		return zero, false
	}
	return t.vals[id], true
}

// Set records v for id.
func (t *Table[V]) Set(id int, v V) {
	t.stamps[id] = t.epoch
	t.vals[id] = v
}

// Deque is a reusable ring-buffer double-ended queue: PushBack+PopFront is
// the BFS frontier, PushBack+PopBack the DFS stack. The backing array
// grows to the high-water mark of its queries and is then reused.
type Deque[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // number of elements
}

// Reset empties the deque, keeping its capacity.
func (q *Deque[T]) Reset() { q.head, q.n = 0, 0 }

// Len returns the number of queued elements.
func (q *Deque[T]) Len() int { return q.n }

// PushBack appends v at the back.
func (q *Deque[T]) PushBack(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// PopFront removes and returns the front element; ok is false when empty.
func (q *Deque[T]) PopFront() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	v = q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}

// PopBack removes and returns the back element; ok is false when empty.
func (q *Deque[T]) PopBack() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	q.n--
	v = q.buf[(q.head+q.n)%len(q.buf)]
	return v, true
}

func (q *Deque[T]) grow() {
	next := make([]T, max(4, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = next
	q.head = 0
}

// Slab hands out slices of one backing array and takes them all back at
// Reset, keeping the capacity: the allocator behind decoded records and
// buffered positions. When the array is full a larger one replaces it —
// slices handed out earlier keep the old array alive until the Reset — so
// after a few queries the slab has reached the workload's high-water mark
// and allocates nothing.
type Slab[T any] struct {
	buf []T
	n   int // elements handed out since the last Reset, from any array
}

// Reset takes back every slice handed out, keeping the capacity.
func (s *Slab[T]) Reset() { s.buf, s.n = s.buf[:0], 0 }

// Alloc returns n elements holding whatever an earlier user left there; the
// caller overwrites all of them. The slice's capacity is its length, so it
// cannot grow into its neighbour.
func (s *Slab[T]) Alloc(n int) []T {
	if n > cap(s.buf)-len(s.buf) {
		s.buf = make([]T, 0, max(2*cap(s.buf), n, 64))
	}
	lo := len(s.buf)
	s.buf = s.buf[:lo+n]
	s.n += n
	return s.buf[lo : lo+n : lo+n]
}

// Len returns the number of elements handed out since the last Reset.
func (s *Slab[T]) Len() int { return s.n }

// Cap returns the capacity of the current backing array.
func (s *Slab[T]) Cap() int { return cap(s.buf) }

// Pool hands out per-query scratch values, one per in-flight query; it is
// a typed wrapper over sync.Pool, so steady-state traffic recycles scratch
// instead of allocating it.
type Pool[S any] struct {
	p sync.Pool
}

// NewPool returns a pool whose empty slots are filled by alloc.
func NewPool[S any](alloc func() *S) *Pool[S] {
	return &Pool[S]{p: sync.Pool{New: func() any { return alloc() }}}
}

// Get takes a scratch value from the pool (allocating via the constructor
// only when the pool is empty).
func (p *Pool[S]) Get() *S { return p.p.Get().(*S) }

// Put returns s to the pool. The caller must not touch s afterwards.
func (p *Pool[S]) Put(s *S) { p.p.Put(s) }
