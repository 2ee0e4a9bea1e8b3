// Package par is the module's one fan-out primitive for batches of
// independent work: scoring thousands of groups, drawing null-model
// samples, one PPR push per NCP seed, running the report's experiments.
//
// For hands out indices dynamically, so which worker runs which index
// depends on scheduling. Callers stay deterministic by writing each
// index's result into its own slot and reducing the slots serially in
// index order after For returns; per-worker scratch indexed by w is
// safe because a worker runs one body at a time.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves the worker count for n units of work: workers <= 0
// selects GOMAXPROCS, and the result never exceeds n (0 when n <= 0).
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(0, min(workers, n))
}

// For calls body exactly once for each i in [0, n), over
// Workers(n, workers) workers that take the next index from a shared
// atomic cursor. w identifies the calling worker, in [0, Workers(n,
// workers)), for indexing per-worker scratch. With one worker the
// bodies run in index order on the caller's goroutine; otherwise the
// caller is worker 0 and For returns only after every worker has
// exited.
func For(n, workers int, body func(w, i int)) {
	workers = Workers(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	drain := func(w int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			body(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			drain(w)
		}()
	}
	drain(0)
	wg.Wait()
}
