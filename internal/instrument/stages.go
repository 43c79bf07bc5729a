package instrument

import "sync/atomic"

// Latency attribution: the admission daemon's end-to-end decision latency
// decomposed into the stages of its critical path. Collection is gated on a
// process-global switch separate from Enable — attribution costs a handful
// of monotonic clock reads per decision plus histogram/ring updates, so load
// tests can measure the daemon with it off (the off path is one atomic load
// and a branch, zero allocations; TestAttributionZeroAllocInactive and the
// ci.sh gate assert this, the same pattern as TraceActive).
//
// Stage boundaries (see ARCHITECTURE.md, "Serving"):
//
//	queue     enqueue → the decision's epoch closes (admission-queue wait,
//	          mostly behind the previous epoch's commit; one close stamp
//	          per batch)
//	coalesce  epoch close → this decision's pricing begins (waiting behind
//	          earlier decisions of the same batch)
//	lookup    the fast path's epoch fence: the staleness check on the
//	          precomputed feasibility tables plus any mirror refresh an
//	          invalidation (crash, restore, liveness edit) forced — near
//	          zero in steady state, so a visible lookup stage IS the
//	          table-miss signal (see OPERATIONS.md triage)
//	pricing   the engine's dual pricing, entry to journal hand-off
//	journal   journal record marshal + frame + buffered write (no fsync)
//	fsync     the per-append fsync making the decision durable
//	ack       response delivery to the waiting client
//
// The seven stages partition the enqueue-to-ack interval: their sum is the
// decision's end-to-end latency up to clock-read granularity, which is what
// lets TestAckConvoyRegression (internal/server) assert the stage-sum p95
// tracks the measured end-to-end p95.

// Stage indexes a StageTimeline.
type Stage int

// The admission critical-path stages, in order.
const (
	StageQueue Stage = iota
	StageCoalesce
	StageLookup
	StagePricing
	StageJournal
	StageFsync
	StageAck
	NumStages
)

// StageNames are the canonical stage labels, indexed by Stage. They appear
// in metric names (server.stage_<name>_seconds), the /slo payload, the
// flight recorder, and the load driver's percentile table.
var StageNames = [NumStages]string{"queue", "coalesce", "lookup", "pricing", "journal", "fsync", "ack"}

// StageTimeline is one decision's critical-path breakdown: nanoseconds spent
// in each stage. The zero value is an empty timeline.
type StageTimeline [NumStages]int64

// TotalNs returns the sum over all stages — the decision's attributed
// end-to-end latency.
func (t *StageTimeline) TotalNs() int64 {
	var sum int64
	for _, ns := range t {
		sum += ns
	}
	return sum
}

// attribution gates all stage-timing collection (clock reads, stage
// histograms, SLO windows, flight-recorder decision entries).
var attribution atomic.Bool

// EnableAttribution turns latency attribution on process-wide.
func EnableAttribution() { attribution.Store(true) }

// DisableAttribution turns latency attribution off process-wide.
func DisableAttribution() { attribution.Store(false) }

// AttributionActive reports whether attribution is on — the zero-alloc
// hot-path guard: stage clocks are read and timelines built only behind it.
func AttributionActive() bool { return attribution.Load() }
