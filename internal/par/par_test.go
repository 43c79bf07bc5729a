package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestDoVisitsEveryIndexOnce runs Do at one, two and many workers, on fewer
// items than workers and on none.
func TestDoVisitsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 1000} {
			seen := make([]atomic.Int32, n)
			Do(n, func(i int) { seen[i].Add(1) })
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d visited %d times", procs, n, i, got)
				}
			}
		}
	}
}

// TestDoWithScratchPerWorker runs DoWith at one, two and many workers: every
// index is visited once, no two goroutines hold one scratch at the same time
// (the race detector sees the unsynchronized writes if they do), and no more
// scratches are made than there are workers.
func TestDoWithScratchPerWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type scratch struct{ visits []int }
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 1000} {
			var made atomic.Int32
			seen := make([]atomic.Int32, n)
			DoWith(n, func() *scratch { made.Add(1); return &scratch{} }, func(s *scratch, i int) {
				s.visits = append(s.visits, i)
				seen[i].Add(1)
			})
			if got, most := int(made.Load()), min(n, procs); got > most {
				t.Fatalf("GOMAXPROCS=%d n=%d: %d scratches made, want at most %d", procs, n, got, most)
			}
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d visited %d times", procs, n, i, got)
				}
			}
		}
	}
}
