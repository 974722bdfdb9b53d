package par

import (
	"sync/atomic"
	"testing"
)

// TestBlocksRunsEveryBlockOnceAndEmitsInOrder: each block's work runs
// once, on a worker id below the worker count, and emit sees the blocks in
// ascending order, each after its work.
func TestBlocksRunsEveryBlockOnceAndEmitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			runs := make([]atomic.Int32, n)
			var badWorker atomic.Bool
			var emitted []int
			Blocks(workers, n, func(w, i int) {
				if w < 0 || w >= workers {
					badWorker.Store(true)
				}
				runs[i].Add(1)
			}, func(i int) {
				if runs[i].Load() != 1 {
					t.Errorf("workers %d, n %d: block %d emitted after %d runs", workers, n, i, runs[i].Load())
				}
				emitted = append(emitted, i)
			})
			if badWorker.Load() {
				t.Errorf("workers %d, n %d: a worker id outside [0, %d)", workers, n, workers)
			}
			for i := range emitted {
				if emitted[i] != i {
					t.Fatalf("workers %d, n %d: emitted %v, want ascending", workers, n, emitted)
				}
			}
			if len(emitted) != n {
				t.Errorf("workers %d, n %d: %d blocks emitted", workers, n, len(emitted))
			}
		}
	}
}
