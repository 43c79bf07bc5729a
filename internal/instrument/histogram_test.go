package instrument

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	Reset()
	Enable()
	defer Disable()
	defer Reset()

	h := NewHistogram("test.hist", 1, 2, 5)
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 10} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 19 {
		t.Fatalf("sum = %g, want 19", got)
	}
	// Raw buckets: ≤1 gets {0.5, 1}, ≤2 gets {1.5, 2}, ≤5 gets {4}, +Inf {10}.
	for i, want := range []int64{2, 2, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramBoundsSortedDeduped(t *testing.T) {
	defer Reset()
	h := NewHistogram("test.hist_dedupe", 5, 1, 5, 2)
	want := []float64{1, 2, 5}
	got := h.bounds
	if len(got) != len(want) {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	defer Reset()
	h := NewHistogram("test.hist_default")
	if len(h.bounds) != len(DefaultDelayBuckets) {
		t.Fatalf("default bounds = %v, want %v", h.bounds, DefaultDelayBuckets)
	}
}

func TestGaugeSet(t *testing.T) {
	Reset()
	Enable()
	defer Disable()
	defer Reset()

	g := NewGauge("test.gauge")
	g.Set(2.5)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}
}

func TestHistogramGaugeDisabledZeroAllocAndInert(t *testing.T) {
	Disable()
	defer Reset()
	h := NewHistogram("test.hist_disabled", 1, 2)
	g := NewGauge("test.gauge_disabled")
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(1.5)
		g.Set(4)
	})
	if allocs != 0 {
		t.Fatalf("disabled histogram/gauge allocated %.1f per run, want 0", allocs)
	}
	if h.Count() != 0 || g.Value() != 0 {
		t.Fatalf("disabled histogram/gauge recorded values: count=%d gauge=%g",
			h.Count(), g.Value())
	}
}

// TestHistogramGaugeUnderContention hammers one histogram and one gauge from
// GOMAXPROCS goroutines and demands exact histogram totals — the CAS loop on
// the float64 sum bits must neither drop nor double-count updates — and a
// gauge holding one of the values stored. Run under -race (ci.sh does).
func TestHistogramGaugeUnderContention(t *testing.T) {
	Reset()
	Enable()
	defer Disable()
	defer Reset()

	h := NewHistogram("stress.hist", 1, 10)
	g := NewGauge("stress.gauge")
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 10_000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(0.5) // bucket 0
				h.Observe(100) // +Inf bucket
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()

	wantPer := int64(workers) * perWorker
	if got := h.Count(); got != 2*wantPer {
		t.Fatalf("histogram count = %d, want %d", got, 2*wantPer)
	}
	if got := h.counts[0].Load(); got != wantPer {
		t.Fatalf("bucket 0 = %d, want %d", got, wantPer)
	}
	if got := h.counts[2].Load(); got != wantPer {
		t.Fatalf("+Inf bucket = %d, want %d", got, wantPer)
	}
	if got := h.Sum(); got != float64(wantPer)*100.5 {
		t.Fatalf("sum = %g, want %g", got, float64(wantPer)*100.5)
	}
	if got := g.Value(); got != float64(int(got)) || got < 0 || got >= float64(workers) {
		t.Fatalf("gauge = %g, want one worker's index in [0,%d)", got, workers)
	}
}

func TestSnapshotTimerCountMeanHistogramGauge(t *testing.T) {
	Reset()
	Enable()
	defer Disable()
	defer Reset()

	tm := NewTimer("test.snap_timer")
	tm.Observe(10)
	tm.Observe(30)
	h := NewHistogram("test.snap_hist", 1, 5)
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)
	g := NewGauge("test.snap_gauge")
	g.Set(0.75)

	snap := Snapshot()
	for key, want := range map[string]int64{
		"test.snap_timer.ns":      40,
		"test.snap_timer.count":   2,
		"test.snap_timer.mean_ns": 20,
		"test.snap_hist.count":    3,
		"test.snap_hist.le_1":     1,
		"test.snap_hist.le_5":     2,
		"test.snap_gauge.milli":   750,
	} {
		if got, ok := snap[key]; !ok || got != want {
			t.Errorf("snapshot[%q] = %d (present=%v), want %d", key, got, ok, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	Reset()
	Enable()
	defer Disable()
	defer Reset()

	NewCounter("test.prom_counter").Add(7)
	tm := NewTimer("test.prom_timer")
	tm.Observe(2_000_000_000)
	h := NewHistogram("test.prom_hist", 1, 5)
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)
	NewGauge("test.prom_gauge").Set(0.25)

	var b strings.Builder
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE edgerep_test_prom_counter counter\nedgerep_test_prom_counter 7\n",
		"edgerep_test_prom_timer_seconds_total 2\n",
		"edgerep_test_prom_timer_observations_total 1\n",
		"# TYPE edgerep_test_prom_hist histogram\n",
		"edgerep_test_prom_hist_bucket{le=\"1\"} 1\n",
		"edgerep_test_prom_hist_bucket{le=\"5\"} 2\n",
		"edgerep_test_prom_hist_bucket{le=\"+Inf\"} 3\n",
		"edgerep_test_prom_hist_sum 103.5\n",
		"edgerep_test_prom_hist_count 3\n",
		"# TYPE edgerep_test_prom_gauge gauge\nedgerep_test_prom_gauge 0.25\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}
	// Sorted by metric name: counter < gauge < hist < timer here.
	if !sortedOutput(text, "edgerep_test_prom_counter", "edgerep_test_prom_gauge", "edgerep_test_prom_hist", "edgerep_test_prom_timer") {
		t.Errorf("prometheus output not sorted by name:\n%s", text)
	}
}

func sortedOutput(text string, names ...string) bool {
	last := -1
	for _, n := range names {
		i := strings.Index(text, n)
		if i < 0 || i < last {
			return false
		}
		last = i
	}
	return true
}
