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
