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
	DoWith(n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) })
}

// DoWith is Do with per-worker scratch: each goroutine calls scratch once,
// before its first item, and passes the result to every fn call it makes, so
// items reuse one buffer per core instead of allocating their own. fn may
// write to its scratch freely; no two goroutines share one.
func DoWith[S any](n int, scratch func() S, fn func(s S, i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			s := scratch()
			for ; i < n; i = int(next.Add(1)) - 1 {
				fn(s, i)
			}
		}()
	}
	wg.Wait()
}
