package instrument

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestAttributionZeroAllocInactive asserts the hot-path contract ci.sh gates
// on: with attribution off and no SLO tracker or flight recorder attached,
// the per-decision guards cost zero allocations (one atomic load and a
// branch each — the TraceActive pattern).
func TestAttributionZeroAllocInactive(t *testing.T) {
	DisableAttribution()
	SetSLOTracker(nil)
	SetFlightRecorder(nil)
	var tl StageTimeline
	allocs := testing.AllocsPerRun(1000, func() {
		if AttributionActive() {
			tl[StageQueue] = int64(Mono())
		}
		if tr := CurrentSLOTracker(); tr != nil {
			tr.NewBatch().Observe(0.001, true, "")
		}
		if fr := CurrentFlightRecorder(); fr != nil {
			fr.RecordDecisionAt(EventAdmit, 1, 1, true, "", &tl, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("inactive attribution guards allocated %.1f per run, want 0", allocs)
	}
}

// TestStageTimelineTotal pins the stage vocabulary and the sum the bench
// report's attribution check is built on.
func TestStageTimelineTotal(t *testing.T) {
	var tl StageTimeline
	for i := Stage(0); i < NumStages; i++ {
		tl[i] = int64(i) + 1
	}
	if got := tl.TotalNs(); got != 28 {
		t.Fatalf("TotalNs = %d, want 28", got)
	}
	want := []string{"queue", "coalesce", "lookup", "pricing", "journal", "fsync", "ack"}
	for i, name := range StageNames {
		if name != want[i] {
			t.Fatalf("StageNames[%d] = %q, want %q", i, name, want[i])
		}
	}
}

// observeExemplar records v with exemplar id into h through a batch of one,
// the way the epoch loop records its stage histograms.
func observeExemplar(h *Histogram, v float64, id int64) {
	b := h.NewBatch()
	defer b.Flush()
	b.Observe(v, id)
}

// TestHistogramExemplars covers batch exemplars and Exemplars including the
// overflow bucket, and FindHistogram's registry lookup.
func TestHistogramExemplars(t *testing.T) {
	Reset()
	Enable()
	defer Disable()
	defer Reset()

	h := NewHistogram("test.exemplar_seconds", 0.001, 0.01)
	if FindHistogram("test.exemplar_seconds") != h {
		t.Fatal("FindHistogram missed a registered histogram")
	}
	if FindHistogram("test.no_such") != nil {
		t.Fatal("FindHistogram invented a histogram")
	}

	observeExemplar(h, 0.0005, 7)
	observeExemplar(h, 0.0006, 9) // same bucket: newest exemplar wins
	observeExemplar(h, 0.5, 42)   // overflow bucket
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("Exemplars() returned %d buckets, want 2", len(ex))
	}
	if ex[0].LE != 0.001 || ex[0].ID != 9 {
		t.Fatalf("first exemplar %+v, want le=0.001 id=9", ex[0])
	}
	if !math.IsInf(ex[1].LE, 1) || ex[1].ID != 42 {
		t.Fatalf("overflow exemplar %+v, want le=+Inf id=42", ex[1])
	}

	// ID 0 is a legal exemplar (the sentinel is the stored zero, not the ID).
	observeExemplar(h, 0.005, 0)
	found := false
	for _, e := range h.Exemplars() {
		if e.LE == 0.01 && e.ID == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("exemplar ID 0 was dropped")
	}

	// Reset clears exemplars with the counts.
	Reset()
	if got := h.Exemplars(); len(got) != 0 {
		t.Fatalf("exemplars survived Reset: %+v", got)
	}
}

// TestHistogramQuantileAndSnapshotAgree asserts -stats and /metrics derive
// the same percentiles: Snapshot's .pXX_micro keys are Quantile scaled to
// microseconds, and the Prometheus rendering carries the same quantile and
// exemplar lines.
func TestHistogramQuantileAndSnapshotAgree(t *testing.T) {
	Reset()
	Enable()
	defer Disable()
	defer Reset()

	h := NewHistogram("test.quant_seconds", 0.001, 0.002, 0.004)
	for i := 0; i < 10; i++ {
		observeExemplar(h, 0.0005, int64(i)) // bucket ≤1ms
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.0015) // bucket (1,2]ms
	}

	q50 := h.Quantile(0.50)
	if math.Abs(q50-0.001) > 1e-9 {
		t.Fatalf("Quantile(0.5) = %v, want 0.001", q50)
	}
	snap := Snapshot()
	if got := snap["test.quant_seconds.p50_micro"]; got != 1000 {
		t.Fatalf("snapshot p50_micro = %d, want 1000", got)
	}
	if got := snap["test.quant_seconds.p99_micro"]; got != int64(math.Round(h.Quantile(0.99)*1e6)) {
		t.Fatalf("snapshot p99_micro = %d disagrees with Quantile(0.99)", got)
	}

	var b strings.Builder
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`test_quant_seconds_quantile{q="0.5"}`,
		`test_quant_seconds_quantile{q="0.99"}`,
		`test_quant_seconds_exemplar{le="0.001"} 9`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus rendering missing %q:\n%s", want, text)
		}
	}
}

// TestManualClock pins the deterministic test clock: it moves only on
// Advance/Set and refuses to rewind.
func TestManualClock(t *testing.T) {
	mc := NewManualClock()
	c := mc.Clock()
	if c() != 0 {
		t.Fatalf("fresh manual clock reads %v, want 0", c())
	}
	mc.Advance(3 * time.Second)
	mc.Set(5 * time.Second)
	if c() != 5*time.Second {
		t.Fatalf("clock reads %v, want 5s", c())
	}
	for name, f := range map[string]func(){
		"negative advance": func() { mc.Advance(-time.Second) },
		"rewinding set":    func() { mc.Set(time.Second) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
	if got := MonoClock()(); got <= 0 {
		t.Fatalf("process monotonic clock reads %v, want > 0", got)
	}
}
