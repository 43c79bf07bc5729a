package instrument

import (
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines and checks
// the total — the counters sit on shared hot paths (DistanceCache, the
// parallel sweep workers) and must not lose updates.
func TestCounterConcurrent(t *testing.T) {
	Enable()
	defer Disable()
	defer Reset()
	c := NewCounter("test.concurrent")
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("lost updates: got %d, want %d", got, goroutines*perG)
	}
}

// TestDisabledZeroAlloc asserts the disabled-mode invariant the package
// promises: instrumenting a hot path costs zero allocations when collection
// is off.
func TestDisabledZeroAlloc(t *testing.T) {
	Disable()
	defer Reset()
	c := NewCounter("test.disabled")
	tm := NewTimer("test.disabled_timer")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		tm.Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %.1f per run, want 0", allocs)
	}
	if c.Value() != 0 || tm.Count() != 0 {
		t.Fatalf("disabled instrumentation recorded values: counter=%d timer=%d",
			c.Value(), tm.Count())
	}
}

// TestEnableDisableSnapshotReset covers the registry lifecycle.
func TestEnableDisableSnapshotReset(t *testing.T) {
	defer Disable()
	defer Reset()
	Reset()
	c := NewCounter("test.lifecycle")
	if NewCounter("test.lifecycle") != c {
		t.Fatal("NewCounter with same name returned a different counter")
	}
	Enable()
	c.Add(7)
	tm := NewTimer("test.lifecycle_timer")
	tm.Observe(2 * time.Second)
	tm.Observe(0)
	snap := Snapshot()
	if snap["test.lifecycle"] != 7 {
		t.Fatalf("snapshot counter = %d, want 7", snap["test.lifecycle"])
	}
	if snap["test.lifecycle_timer.count"] != 2 {
		t.Fatalf("snapshot timer count = %d, want 2", snap["test.lifecycle_timer.count"])
	}
	if tm.TotalNs() < int64(2*time.Second) {
		t.Fatalf("timer total %d below observed duration", tm.TotalNs())
	}
	if s := FormatSnapshot(snap); s == "" {
		t.Fatal("empty formatted snapshot")
	}
	Reset()
	if c.Value() != 0 || tm.Count() != 0 {
		t.Fatal("Reset did not zero metrics")
	}
}
