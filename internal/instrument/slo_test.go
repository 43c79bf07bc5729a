package instrument

import (
	"math"
	"testing"
	"time"
)

// observe records one decision into tr through a batch of one, the way the
// epoch loop records its decisions.
func observe(tr *SLOTracker, latencySec float64, admitted bool, reason Reason) {
	b := tr.NewBatch()
	defer b.Flush()
	b.Observe(latencySec, admitted, reason)
}

// sloTestConfig pins targets so the expected burn rates are exact: p95
// objective 1ms, p99 objective 10ms, attainment objective 0.8.
func sloTestConfig(mc *ManualClock) SLOConfig {
	return SLOConfig{
		LatencyP95Target: 0.001,
		LatencyP99Target: 0.010,
		AttainmentTarget: 0.8,
		Clock:            mc.Clock(),
	}
}

// TestSLOTrackerWindows drives a known mix through one second and checks
// every derived number in the three windows.
func TestSLOTrackerWindows(t *testing.T) {
	mc := NewManualClock()
	mc.Advance(10 * time.Second)
	tr := NewSLOTracker(sloTestConfig(mc))

	// 8 admitted fast, 1 admitted slow (misses both latency targets),
	// 1 rejected fast for capacity: 10 offers, attainment 0.9,
	// p95-ok 0.9, p99-ok 0.9.
	for i := 0; i < 8; i++ {
		observe(tr, 0.0002, true, "")
	}
	observe(tr, 0.050, true, "")
	observe(tr, 0.0002, false, ReasonCapacity)

	rep := tr.Report()
	if len(rep.Windows) != 3 {
		t.Fatalf("report has %d windows, want 3", len(rep.Windows))
	}
	for _, win := range rep.Windows {
		if win.Offers != 10 || win.Admitted != 9 || win.Rejected != 1 {
			t.Fatalf("window %s: offers/admitted/rejected = %d/%d/%d, want 10/9/1",
				win.Window, win.Offers, win.Admitted, win.Rejected)
		}
		if math.Abs(win.LatencyP95OK-0.9) > 1e-9 || math.Abs(win.LatencyP99OK-0.9) > 1e-9 {
			t.Fatalf("window %s: ok fractions p95=%v p99=%v, want 0.9", win.Window, win.LatencyP95OK, win.LatencyP99OK)
		}
		// Burn: bad fraction 0.1 over budget 0.05 → 2.0 (p95); over 0.01 → 10.0 (p99).
		if math.Abs(win.BurnRateP95-2.0) > 1e-9 {
			t.Fatalf("window %s: p95 burn %v, want 2.0", win.Window, win.BurnRateP95)
		}
		if math.Abs(win.BurnRateP99-10.0) > 1e-9 {
			t.Fatalf("window %s: p99 burn %v, want 10.0", win.Window, win.BurnRateP99)
		}
		// Attainment 0.9 against target 0.8: bad 0.1 over budget 0.2 → 0.5.
		if math.Abs(win.Attainment-0.9) > 1e-9 || math.Abs(win.AttainmentBurnRate-0.5) > 1e-9 {
			t.Fatalf("window %s: attainment %v burn %v, want 0.9 / 0.5", win.Window, win.Attainment, win.AttainmentBurnRate)
		}
		if len(win.Rejections) != 1 || win.Rejections[0].Reason != ReasonCapacity ||
			win.Rejections[0].Count != 1 || math.Abs(win.Rejections[0].Rate-0.1) > 1e-9 {
			t.Fatalf("window %s: rejections %+v, want one capacity rejection at rate 0.1", win.Window, win.Rejections)
		}
		if win.LatencyP50 <= 0 || win.LatencyP95 <= 0 || win.LatencyP50 > win.LatencyP95 {
			t.Fatalf("window %s: implausible latency percentiles p50=%v p95=%v", win.Window, win.LatencyP50, win.LatencyP95)
		}
	}
}

// TestSLOTrackerWindowExpiry confirms old seconds age out of the short
// windows but stay in the hour, and that slots recycled past a full ring
// never leak stale counts.
func TestSLOTrackerWindowExpiry(t *testing.T) {
	mc := NewManualClock()
	mc.Advance(time.Second)
	tr := NewSLOTracker(sloTestConfig(mc))

	observe(tr, 0.0002, true, "")
	mc.Advance(2 * time.Minute) // past 1m, inside 5m and 1h
	observe(tr, 0.0002, true, "")

	rep := tr.Report()
	byLabel := map[string]SLOWindow{}
	for _, w := range rep.Windows {
		byLabel[w.Window] = w
	}
	if byLabel["1m"].Offers != 1 {
		t.Fatalf("1m window sees %d offers, want only the recent 1", byLabel["1m"].Offers)
	}
	if byLabel["5m"].Offers != 2 || byLabel["1h"].Offers != 2 {
		t.Fatalf("5m/1h windows see %d/%d offers, want 2/2", byLabel["5m"].Offers, byLabel["1h"].Offers)
	}

	// A full ring later, the first observation's slot has been recycled:
	// nothing from it may survive anywhere.
	mc.Advance(sloRingSeconds * time.Second)
	observe(tr, 0.0002, false, ReasonDeadline)
	rep = tr.Report()
	for _, w := range rep.Windows {
		if w.Offers != 1 || w.Rejected != 1 {
			t.Fatalf("window %s after ring wrap: offers=%d rejected=%d, want 1/1", w.Window, w.Offers, w.Rejected)
		}
	}
}

// TestSLOTrackerUnknownReason buckets a future (unknown) reason as "other"
// instead of dropping it.
func TestSLOTrackerUnknownReason(t *testing.T) {
	mc := NewManualClock()
	mc.Advance(time.Second)
	tr := NewSLOTracker(sloTestConfig(mc))
	observe(tr, 0.0002, false, Reason("not-in-vocabulary"))

	win := tr.Report().Windows[0]
	if len(win.Rejections) != 1 || win.Rejections[0].Reason != "other" || win.Rejections[0].Count != 1 {
		t.Fatalf("unknown reason bucketed as %+v, want one \"other\"", win.Rejections)
	}
}

// TestSLOTrackerObserveAllocFree asserts the per-decision write path — a
// batch's Observe and its Flush — does not allocate: it runs inside the
// daemon's epoch loop.
func TestSLOTrackerObserveAllocFree(t *testing.T) {
	mc := NewManualClock()
	mc.Advance(time.Second)
	tr := NewSLOTracker(sloTestConfig(mc))
	b := tr.NewBatch()
	allocs := testing.AllocsPerRun(1000, func() {
		defer b.Flush()
		b.Observe(0.0002, true, "")
		b.Observe(0.2, false, ReasonCapacity)
	})
	if allocs != 0 {
		t.Fatalf("Observe and Flush allocated %.1f per run, want 0", allocs)
	}
}

// TestBucketQuantileInterpolation pins the shared quantile math: linear
// interpolation inside a bucket, +Inf bucket clamped to the top bound.
func TestBucketQuantileInterpolation(t *testing.T) {
	bounds := []float64{0.001, 0.002, 0.004}
	// 10 observations ≤1ms, 10 in (1,2]ms, none beyond.
	counts := []int64{10, 10, 0, 0}
	if got := bucketQuantile(bounds, counts, 0.50); math.Abs(got-0.001) > 1e-9 {
		t.Fatalf("q50 = %v, want 0.001 (bucket boundary)", got)
	}
	if got := bucketQuantile(bounds, counts, 0.75); math.Abs(got-0.0015) > 1e-9 {
		t.Fatalf("q75 = %v, want 0.0015 (midpoint of second bucket)", got)
	}
	// Mass in the overflow bucket clamps to the top bound.
	counts = []int64{0, 0, 0, 5}
	if got := bucketQuantile(bounds, counts, 0.99); got != 0.004 {
		t.Fatalf("q99 with overflow mass = %v, want clamp to 0.004", got)
	}
	if got := bucketQuantile(bounds, []int64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
}

// TestGlobalSLOTrackerAttachDetach covers the process-global guard the
// serving layer uses.
func TestGlobalSLOTrackerAttachDetach(t *testing.T) {
	if CurrentSLOTracker() != nil {
		t.Fatal("tracker attached at test start")
	}
	tr := NewSLOTracker(SLOConfig{})
	SetSLOTracker(tr)
	if CurrentSLOTracker() != tr {
		t.Fatal("CurrentSLOTracker did not return the attached tracker")
	}
	SetSLOTracker(nil)
	if CurrentSLOTracker() != nil {
		t.Fatal("detach left a tracker attached")
	}
}
