package instrument

import (
	"sync/atomic"
	"time"
)

// ManualClock is a deterministic Clock for tests: it only moves when
// Advance is called. Safe for concurrent use.
type ManualClock struct {
	now atomic.Int64
}

// NewManualClock returns a manual clock positioned at zero.
func NewManualClock() *ManualClock { return &ManualClock{} }

// Clock returns the ManualClock's reading function.
func (m *ManualClock) Clock() Clock {
	return func() time.Duration { return time.Duration(m.now.Load()) }
}

// Advance moves the clock forward by d (panics on negative d — a monotonic
// clock never rewinds).
func (m *ManualClock) Advance(d time.Duration) {
	if d < 0 {
		panic("instrument: ManualClock.Advance with negative duration")
	}
	m.now.Add(int64(d))
}

// Set positions the clock at an absolute reading ≥ the current one.
func (m *ManualClock) Set(d time.Duration) {
	for {
		cur := m.now.Load()
		if int64(d) < cur {
			panic("instrument: ManualClock.Set would rewind a monotonic clock")
		}
		if m.now.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}
