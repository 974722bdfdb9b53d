// Package par runs the data-parallel kernels of index construction —
// contact extraction, long-edge composition and partition encoding — over
// the process's cores. A kernel splits its input into blocks, each worker
// goroutine owns its scratch, and what the kernel builds never depends on
// how many workers ran it: blocks are fixed by the input alone, and their
// results are consumed in block order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of workers a kernel fans out to: the processors
// the Go scheduler runs goroutines on.
func Workers() int { return runtime.GOMAXPROCS(0) }

// Blocks runs work(w, i) for every block i in [0, n) on at most workers
// goroutines; w in [0, workers) names the goroutine, so a kernel can give
// each its own scratch. emit, when non-nil, is called on the caller's
// goroutine for every block in ascending order, each once the block's work
// is done, so it may fold results into state that only the caller touches.
// With one worker or one block everything runs on the caller's goroutine.
// Blocks returns after every goroutine it started has exited.
func Blocks(workers, n int, work func(w, i int), emit func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			work(0, i)
			if emit != nil {
				emit(i)
			}
		}
		return
	}
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				work(w, i)
				close(done[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-done[i]
		if emit != nil {
			emit(i)
		}
	}
	wg.Wait()
}

// Split returns the number of blocks of at least grain items that n items
// make, at least one: kernels below the grain run inline.
func Split(n, grain int) int { return max(1, n/grain) }
