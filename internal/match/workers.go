package match

import (
	"sync"
	"sync/atomic"
)

// applyWorkers propagates Options.Workers to the problem's frequency cache,
// so uncached trace scans (the hottest leaf of every score evaluation) use
// the same worker pool as the search. Trace-shard merging is order-
// independent, so this never changes a frequency value.
func (pr *Problem) applyWorkers(opts Options) {
	w := opts.Workers
	if w < 1 {
		w = 1
	}
	pr.fc2.SetWorkers(w)
}

// forEachIndex runs fn(i) for every i in [0, n) across min(workers, n)
// goroutines, handing out indices through an atomic counter; with one
// worker (or workers <= 1) it calls fn in index order on the caller's
// goroutine. It returns only after every index has been processed. fn must
// be safe for concurrent invocation; results are communicated by writing to
// index i of a caller-owned slice, so no two invocations touch the same
// element and the final layout is independent of scheduling.
func forEachIndex(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
