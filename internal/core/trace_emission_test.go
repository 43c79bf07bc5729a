package core

import (
	"testing"
	"time"

	"edgerep/internal/instrument"
)

// TestTraceEmissionZeroAllocInactive asserts the acceptance contract of the
// observability layer: with no trace sink attached, the emission hooks on the
// Appro-G hot path (admit, reject, phase, begin/end) cost zero allocations.
// ci.sh gates on this test.
func TestTraceEmissionZeroAllocInactive(t *testing.T) {
	instrument.ResetTrace()
	instrument.Disable()
	p := problem(t, 1, 20, 6, 3)
	a := newAscent(p, Options{})
	admit := -1
	for qi := range p.Queries {
		if a.planBundle(qi) {
			admit = qi
			break
		}
	}
	if admit == -1 {
		t.Fatal("no feasible query in the test instance")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		a.beginTrace("appro-g")
		a.emitPhase("proactive", time.Millisecond)
		a.emitAdmit(admit)
		a.emitReject(1, 1)
		a.endTrace()
		a.observeCommit(admit)
	})
	if allocs != 0 {
		t.Fatalf("inactive trace emission allocated %.1f per run on the hot path, want 0", allocs)
	}
}

// BenchmarkApproGTraceInactive measures the full Appro-G run with the
// observability hooks compiled in but no sink attached — the baseline the
// ObsOverhead bench-report entry compares against.
func BenchmarkApproGTraceInactive(b *testing.B) {
	instrument.ResetTrace()
	p := problem(b, 1, 60, 12, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApproG(p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
