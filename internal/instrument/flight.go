package instrument

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
)

// Flight recorder: a fixed-size ring of the daemon's most recent decision
// timelines and lifecycle events (chaos kills, crash-recovery, repair,
// drain). After a chaos drill the post-mortem starts from /debug/flight — or
// from the snapshot the daemon drops next to its journal on SIGTERM/panic —
// instead of from logs.
//
// The ring is lock-cheap rather than lock-free: each slot has its own
// mutex, writers take only their slot's lock (uncontended unless two writers
// land on the same slot N entries apart), and readers walk the slots one
// lock at a time — so a /debug/flight dump never stalls the admission loop
// behind a global lock, and the whole structure is race-detector-clean
// (TestFlightRecorderRaceStress runs writers against a mid-churn reader
// under -race).

// FlightEntry is one recorded event. Decision entries (kind admit/reject)
// carry the stage timeline; lifecycle entries (crash/repair/evict/drain/
// chaos) carry the fields that apply and zero elsewhere.
type FlightEntry struct {
	// ID is the process-wide monotone sequence number; dumps are sorted by
	// it, so the last entry is the newest.
	ID   int64  `json:"id"`
	Kind string `json:"kind"`
	// AtNs is the monotonic clock reading (instrument.Mono) when the entry
	// was recorded — deltas between entries are meaningful, absolute values
	// are process-relative.
	AtNs     int64  `json:"at_ns"`
	Query    int64  `json:"query,omitempty"`
	Epoch    int64  `json:"epoch,omitempty"`
	Node     int64  `json:"node,omitempty"`
	Admitted bool   `json:"admitted,omitempty"`
	Reason   Reason `json:"reason,omitempty"`
	// Stages is the decision's critical-path breakdown in StageNames order;
	// TotalNs is its sum (the attributed end-to-end latency).
	Stages  []int64 `json:"stage_ns,omitempty"`
	TotalNs int64   `json:"total_ns,omitempty"`
}

// Flight-entry kinds beyond the trace-event vocabulary (EventAdmit,
// EventReject, EventCrash, …, which decision and failover entries reuse).
const (
	// EventChaos marks an injected fault about to fire (the chaos drill's
	// armed crash point).
	EventChaos = "chaos"
	// EventDrain marks graceful shutdown beginning.
	EventDrain = "drain"
)

// flightSlot is one ring position. stages is slot-owned storage for decision
// timelines: the writer copies into it instead of allocating per decision,
// and readers deep-copy under the slot lock before returning entries.
type flightSlot struct {
	mu     sync.Mutex
	valid  bool
	entry  FlightEntry
	stages StageTimeline
}

// FlightRecorder is the ring. Use NewFlightRecorder.
type FlightRecorder struct {
	seq   atomic.Int64
	slots []flightSlot
	clock Clock
}

// NewFlightRecorder builds a ring holding the last n entries (n < 1 is
// treated as 1). clock may be nil for the process monotonic clock.
func NewFlightRecorder(n int, clock Clock) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	if clock == nil {
		clock = Mono
	}
	return &FlightRecorder{slots: make([]flightSlot, n), clock: clock}
}

// Record stores e, overwriting the oldest entry once the ring is full. The
// recorder assigns ID and AtNs.
func (r *FlightRecorder) Record(e FlightEntry) {
	r.record(e, nil, 0)
}

// record assigns ID and AtNs (atNs ≤ 0 reads the recorder's clock), copies
// stages into the slot's own storage when given, and stores the entry.
func (r *FlightRecorder) record(e FlightEntry, stages *StageTimeline, atNs int64) {
	id := r.seq.Add(1)
	e.ID = id
	if atNs <= 0 {
		atNs = int64(r.clock())
	}
	e.AtNs = atNs
	s := &r.slots[(id-1)%int64(len(r.slots))]
	s.mu.Lock()
	if stages != nil {
		s.stages = *stages
		e.Stages = s.stages[:NumStages:NumStages]
	}
	s.entry = e
	s.valid = true
	s.mu.Unlock()
}

// RecordDecisionAt stores one admission decision with its stage timeline,
// stamped atNs, a monotonic reading (atNs ≤ 0 falls back to the recorder's
// clock): the epoch loop has already stamped the decision's end, so the hot
// path need not read the clock again. Stages is copied into slot-owned
// storage, so the caller may reuse its timeline — no per-decision
// allocation.
func (r *FlightRecorder) RecordDecisionAt(kind string, query, epoch int64, admitted bool, reason Reason, stages *StageTimeline, atNs int64) {
	e := FlightEntry{Kind: kind, Query: query, Epoch: epoch, Admitted: admitted, Reason: reason}
	if stages != nil {
		e.TotalNs = stages.TotalNs()
	}
	r.record(e, stages, atNs)
}

// RecordEvent stores one lifecycle event (crash/repair/evict/drain/chaos).
func (r *FlightRecorder) RecordEvent(kind string, query, node int64, reason Reason) {
	r.Record(FlightEntry{Kind: kind, Query: query, Node: node, Reason: reason})
}

// Entries returns the recorded entries, oldest first. Entries recorded while
// the walk is in progress may or may not appear — the dump is a best-effort
// snapshot, never a stall of the writers.
func (r *FlightRecorder) Entries() []FlightEntry {
	out := make([]FlightEntry, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.valid {
			ent := s.entry
			if ent.Stages != nil {
				// Detach from the slot-owned storage a later write reuses.
				ent.Stages = append([]int64(nil), ent.Stages...)
			}
			out = append(out, ent)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FlightSnapshot is the /debug/flight payload and the on-disk SIGTERM/panic
// snapshot format.
type FlightSnapshot struct {
	// CapturedAtNs is the monotonic reading at capture; Recorded is the
	// total number of entries ever recorded (entries holds at most Cap of
	// them).
	CapturedAtNs int64         `json:"captured_at_ns"`
	Recorded     int64         `json:"recorded"`
	Cap          int           `json:"cap"`
	StageNames   []string      `json:"stage_names"`
	Entries      []FlightEntry `json:"entries"`
}

// Snapshot captures the ring's current contents.
func (r *FlightRecorder) Snapshot() FlightSnapshot {
	return FlightSnapshot{
		CapturedAtNs: int64(r.clock()),
		Recorded:     r.seq.Load(),
		Cap:          len(r.slots),
		StageNames:   StageNames[:],
		Entries:      r.Entries(),
	}
}

// DumpJSON renders the snapshot as indented JSON (the /debug/flight body and
// the crash-snapshot file content).
func (r *FlightRecorder) DumpJSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}

// flightRecorder is the process-global recorder; nil means the flight
// recorder is off and the per-decision guard is one atomic pointer load.
var flightRecorder atomic.Pointer[FlightRecorder]

// SetFlightRecorder attaches (or with nil detaches) the global recorder.
func SetFlightRecorder(r *FlightRecorder) { flightRecorder.Store(r) }

// CurrentFlightRecorder returns the attached recorder (nil when off).
func CurrentFlightRecorder() *FlightRecorder { return flightRecorder.Load() }
