// Package par runs independent, index-addressed work on every core.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(i) once for every i in [0, n) from min(n, GOMAXPROCS)
// goroutines and returns when all calls have returned. Indices are handed out
// one at a time, so uneven items balance. fn must write only to state its
// index owns; what it wrote is visible to the caller when Do returns. With
// one worker (GOMAXPROCS=1) it is the same loop on one goroutine.
func Do(n int, fn func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
