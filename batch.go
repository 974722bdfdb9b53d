// Batch evaluation for serving-style workloads: a bounded worker pool
// drives one Engine through a query slice under a context.

package streach

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// BatchOptions configures EvaluateBatch.
type BatchOptions struct {
	// Workers bounds the worker pool; values ≤ 0 select GOMAXPROCS. The
	// pool never exceeds the number of queries.
	Workers int
	// ContinueOnError keeps evaluating the remaining queries after a
	// query fails instead of cancelling the batch; the first error is
	// still returned.
	ContinueOnError bool
}

// EvaluateBatch evaluates every query in qs against e with a bounded worker
// pool. results[i] answers qs[i]; its Evaluated field reports whether the
// query ran (cancellation or a failure leaves the remainder unevaluated
// unless ContinueOnError is set). The first query error, or the context's
// error when the batch was cancelled, is returned alongside the partial
// results.
//
// Registry engines evaluate read-only queries fully in parallel — each
// query threads its own I/O accountant through the traversal and the
// buffer pool is latched per page shard — so batch throughput scales with
// Workers up to GOMAXPROCS. Every Result still carries its exact per-query
// I/O delta; the deltas of successfully evaluated queries sum to the
// engine's cumulative Stats().IO and, for engines sharing a BufferPool, to
// the pool's global counters (a query that errors or is cancelled
// mid-evaluation charges the totals but returns no delta).
func EvaluateBatch(ctx context.Context, e Engine, qs []Query, opts BatchOptions) ([]Result, error) {
	results := make([]Result, len(qs))
	for i := range results {
		// Unevaluated slots must not read as "arrived at tick 0": the
		// sentinel matches what evaluated negative queries report.
		results[i].Arrival, results[i].Hops = -1, -1
	}
	if len(qs) == 0 {
		return results, ctx.Err()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			if !opts.ContinueOnError {
				cancel()
			}
		})
	}

	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := e.Reachable(ctx, qs[i])
				if err != nil {
					if ctx.Err() != nil && !opts.ContinueOnError {
						fail(ctx.Err())
						return
					}
					fail(fmt.Errorf("streach: batch query %d (%v): %w", i, qs[i], err))
					if !opts.ContinueOnError {
						return
					}
					continue
				}
				results[i] = r
			}
		}()
	}

feed:
	for i := range qs {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if firstErr != nil {
		return results, firstErr
	}
	return results, ctx.Err()
}
