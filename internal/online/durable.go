// Durable state for the online engine: every input the engine acts on —
// offers, node crashes, restores — is journaled to a write-ahead log
// together with the outcome the engine committed to (admit with the node of
// each demand, or reject; repair/evict as counts), and the full engine state
// is periodically snapshotted. Records are written in the binary v1 format
// of record.go, a few dozen bytes each, encoded into a reused buffer so
// journaling allocates nothing; journals written before it hold v0 JSON
// records, which DecodeRecord still reads, so they recover as they always
// did. Snapshots are EngineState in the binary v1 format of snapshot.go,
// encoded into a reused buffer as well; older journals' snapshots are its
// JSON, which DecodeSnapshot still reads. Because the engine is
// deterministic — the same problem and the same input sequence reproduce the
// same state — recovery is: load the newest snapshot, replay the WAL suffix
// through the ordinary Offer/Crash/Restore paths, and cross-check each
// replayed outcome against the recorded one (a mismatch means the problem or
// binary changed under the journal and recovery refuses with ErrDivergent
// rather than resurrect a different history). invariant.CheckRecovered
// proves the result field-identical to a never-crashed run.
package online

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/journal"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// ErrDivergent reports that replaying a journal produced a different outcome
// than the one recorded — the journal belongs to a different problem
// instance or engine version, and recovering from it would fabricate state.
var ErrDivergent = errors.New("online: journal replay diverged from recorded outcome")

// NodeUse is one node's instantaneous allocation in an EngineState.
type NodeUse struct {
	Node graph.NodeID `json:"node"`
	GHz  float64      `json:"ghz"`
}

// ReleaseState is one scheduled capacity release in an EngineState. Forever
// marks hold-forever allocations (the engine keeps them at +Inf, which JSON
// cannot encode; At is 0 in that case).
type ReleaseState struct {
	At      float64            `json:"at"`
	Forever bool               `json:"forever,omitempty"`
	Node    graph.NodeID       `json:"node"`
	GHz     float64            `json:"ghz"`
	Query   workload.QueryID   `json:"query"`
	Dataset workload.DatasetID `json:"dataset"`
}

// ReplicaSet is one dataset's replica nodes in an EngineState, in the order
// the solution holds them (placement order is part of the engine's state).
type ReplicaSet struct {
	Dataset workload.DatasetID `json:"dataset"`
	Nodes   []graph.NodeID     `json:"nodes"`
}

// EngineState is the canonical dump of an Engine: everything that varies
// with the input history, in deterministic order. It is the snapshot payload
// and the object invariant.CheckRecovered compares field by field —
// "recovered" means every field here matches a never-crashed engine's.
type EngineState struct {
	Now            float64 `json:"now"`
	Peak           float64 `json:"peak"`
	VolumeAdmitted float64 `json:"volume_admitted"`
	Admitted       int     `json:"admitted"`
	Rejected       int     `json:"rejected"`
	Evicted        int     `json:"evicted"`
	// Used holds the non-zero instantaneous allocations, sorted by node.
	Used []NodeUse `json:"used,omitempty"`
	// Releases holds the pending capacity releases, sorted (the heap's
	// internal layout is not state — its multiset is).
	Releases []ReleaseState `json:"releases,omitempty"`
	// Replicas holds each dataset's replica nodes, sorted by dataset.
	Replicas        []ReplicaSet           `json:"replicas,omitempty"`
	Assignments     []placement.Assignment `json:"assignments,omitempty"`
	AdmittedQueries []workload.QueryID     `json:"admitted_queries,omitempty"`
	Decisions       []Decision             `json:"decisions,omitempty"`
	// Down lists crashed-and-not-restored nodes, sorted.
	Down []graph.NodeID `json:"down,omitempty"`
}

// StateDump captures the engine's canonical state (see EngineState).
func (e *Engine) StateDump() *EngineState {
	st := &EngineState{
		Now:            e.now,
		Peak:           e.peak,
		VolumeAdmitted: e.res.VolumeAdmitted,
		Admitted:       e.res.Admitted,
		Rejected:       e.res.Rejected,
		Evicted:        e.res.Evicted,
	}
	// The ledger is dense; ascending compute-node order reproduces the old
	// map dump's sorted output exactly (non-compute nodes are never held).
	for _, v := range e.p.Cloud.ComputeNodes() {
		if amt := e.usedGHz(v); amt != 0 {
			st.Used = append(st.Used, NodeUse{Node: v, GHz: amt})
		}
	}
	// Listed in the heap's own order, hold-forever releases first: their At
	// encodes as 0, and that is where the dump has always put them.
	pending := slices.Clone(e.releases)
	slices.SortFunc(pending, release.compare)
	forever := len(pending)
	for forever > 0 && math.IsInf(pending[forever-1].at, 1) {
		forever--
	}
	for _, r := range pending[forever:] {
		st.Releases = append(st.Releases, ReleaseState{Forever: true, Node: r.node, GHz: r.amt, Query: r.query, Dataset: r.dataset})
	}
	for _, r := range pending[:forever] {
		st.Releases = append(st.Releases, ReleaseState{At: r.at, Node: r.node, GHz: r.amt, Query: r.query, Dataset: r.dataset})
	}
	for n, nodes := range e.sol.Replicas {
		if len(nodes) == 0 {
			continue
		}
		st.Replicas = append(st.Replicas, ReplicaSet{Dataset: n, Nodes: append([]graph.NodeID(nil), nodes...)})
	}
	sort.Slice(st.Replicas, func(i, j int) bool { return st.Replicas[i].Dataset < st.Replicas[j].Dataset })
	st.Assignments = append([]placement.Assignment(nil), e.sol.Assignments...)
	st.AdmittedQueries = e.sol.Admitted()
	st.Decisions = append([]Decision(nil), e.res.Decisions...)
	if e.live != nil {
		// Normalized to nil when no node is down so a dump survives a JSON
		// round-trip (omitempty) unchanged.
		if down := e.live.DownNodes(); len(down) > 0 {
			st.Down = down
		}
	}
	return st
}

// loadState overwrites the engine's dynamic state from a snapshot dump and
// takes ownership of its Decisions and Assignments: the caller hands over a
// dump that nothing else holds (a freshly decoded snapshot or StateDump).
func (e *Engine) loadState(st *EngineState) {
	e.now = st.Now
	e.peak = st.Peak
	e.res = Result{
		VolumeAdmitted: st.VolumeAdmitted,
		Admitted:       st.Admitted,
		Rejected:       st.Rejected,
		Evicted:        st.Evicted,
		Decisions:      st.Decisions,
	}
	e.resetUsed()
	for _, u := range st.Used {
		e.setUsed(u.Node, u.GHz)
	}
	e.releases = e.releases[:0]
	for _, r := range st.Releases {
		at := r.At
		if r.Forever {
			at = math.Inf(1)
		}
		e.releases = append(e.releases, release{at: at, node: r.Node, amt: r.GHz, query: r.Query, dataset: r.Dataset})
	}
	e.releases.init()
	e.sol = placement.NewSolution()
	for _, rs := range st.Replicas {
		e.sol.Replicas[rs.Dataset] = append([]graph.NodeID(nil), rs.Nodes...)
	}
	for _, q := range st.AdmittedQueries {
		e.sol.Admit(q, nil)
	}
	e.sol.Assignments = st.Assignments
	for _, v := range st.Down {
		e.Liveness().MarkDown(v)
	}
	// A bulk load rewrote liveness and load wholesale; force the fast
	// path's mirror to rebuild even if generations happen to line up.
	e.fast.invalidate()
}

// Now returns the engine's current model time: the AtSec of the latest
// offered arrival (or of the latest crash). A daemon that recovers an engine
// uses it as the floor for its serving clock, so post-recovery arrivals never
// travel back in time relative to the replayed history.
func (e *Engine) Now() float64 { return e.now }

// SnapshotNow forces a full state snapshot at the journal's current LSN,
// regardless of the SnapshotEvery cadence. The admission daemon calls it on
// graceful drain so a later restart replays zero WAL records. No-op without
// an attached journal.
func (e *Engine) SnapshotNow() error {
	if e.jn == nil {
		return nil
	}
	return e.writeSnapshot()
}

// writeSnapshot encodes the engine's state into the reused buffer and writes
// it as the journal's snapshot at its current LSN.
func (e *Engine) writeSnapshot() error {
	e.snapBuf = AppendSnapshot(e.snapBuf[:0], e.StateDump())
	return e.jn.Snapshot(e.snapBuf)
}

// writeRecord encodes e.rec into the reused buffer, writes it to the journal
// and takes a snapshot when the cadence says so. The record is durable at the
// next Commit (or at that snapshot, which syncs the WAL first). Callers have
// checked that the engine journals.
func (e *Engine) writeRecord() error {
	e.recBuf = appendRecord(e.recBuf[:0], &e.rec)
	if _, err := e.jn.AppendUnsynced(e.recBuf); err != nil {
		return err
	}
	if e.snapEvery > 0 && e.jn.LSN()%int64(e.snapEvery) == 0 {
		return e.writeSnapshot()
	}
	return nil
}

// Commit is the engine's durability barrier: every Offer, Crash and Restore
// journaled since the last one is on disk when it returns (one fsync, see
// journal.Commit). The caller acknowledges nothing before it does. No-op
// without a journal.
func (e *Engine) Commit() error {
	if e.jn == nil {
		return nil
	}
	return e.jn.Commit()
}

// journalOffer records one offer with its committed decision: admitted with
// the node serving each demand, or rejected (the reason is a trace concern,
// not a durability one). No-op while replaying or without a journal.
func (e *Engine) journalOffer(a Arrival, dec Decision) error {
	if e.jn == nil || e.replaying {
		return nil
	}
	e.rec = JournalRecord{Kind: RecordOffer, At: a.AtSec, Hold: a.HoldSec, Query: a.Query, Node: -1,
		Admitted: dec.Admitted, Assignments: e.rec.Assignments[:0]}
	for _, asg := range dec.Assignments {
		e.rec.Assignments = append(e.rec.Assignments, DemandNode{Dataset: asg.Dataset, Node: asg.Node})
	}
	return e.writeRecord()
}

// journalCrash records one crash with its repair summary.
func (e *Engine) journalCrash(atSec float64, v graph.NodeID, rep CrashReport) error {
	if e.jn == nil || e.replaying {
		return nil
	}
	e.rec = JournalRecord{Kind: RecordCrash, At: atSec, Query: -1, Node: v,
		LostReplicas: rep.LostReplicas, Repaired: rep.Repaired, Evicted: len(rep.Evicted)}
	return e.writeRecord()
}

// journalRestore records a node restore.
func (e *Engine) journalRestore(v graph.NodeID) error {
	if e.jn == nil || e.replaying {
		return nil
	}
	e.rec = JournalRecord{Kind: RecordRestore, At: e.now, Query: -1, Node: v}
	return e.writeRecord()
}

// Recover rebuilds an engine from a loaded journal: construct it exactly as
// NewEngine would (same problem, same options), load the snapshot if one
// survived, replay the WAL suffix through the ordinary input paths, and
// cross-check every replayed outcome against the recorded one. On success
// the journal in opt (if any) is re-attached so the recovered engine
// continues journaling from where the log ends. A torn tail in st has
// already been dropped by journal.Load — the lost record was never
// acknowledged, so the recovered engine is simply the state before it.
func Recover(p *placement.Problem, expectedArrivals int, opt Options, st *journal.State) (*Engine, error) {
	r, err := NewRehydrator(p, expectedArrivals, opt, st)
	if err != nil {
		return nil, err
	}
	return r.Promote(opt), nil
}

// replayRecord applies one journaled input and verifies the outcome.
func (e *Engine) replayRecord(lsn int64, rec *JournalRecord) error {
	switch rec.Kind {
	case RecordOffer:
		dec, err := e.Offer(Arrival{Query: rec.Query, AtSec: rec.At, HoldSec: rec.Hold})
		if err != nil {
			return fmt.Errorf("online: replay record %d: %w", lsn, err)
		}
		if dec.Admitted != rec.Admitted {
			return fmt.Errorf("online: record %d: query %d replayed admitted=%v, journal says %v: %w",
				lsn, rec.Query, dec.Admitted, rec.Admitted, ErrDivergent)
		}
		if len(dec.Assignments) != len(rec.Assignments) {
			return fmt.Errorf("online: record %d: query %d replayed %d assignments, journal has %d: %w",
				lsn, rec.Query, len(dec.Assignments), len(rec.Assignments), ErrDivergent)
		}
		for i, asg := range dec.Assignments {
			if want := rec.Assignments[i]; asg.Dataset != want.Dataset || asg.Node != want.Node {
				return fmt.Errorf("online: record %d: query %d demand %d replayed (%d,%d), journal has (%d,%d): %w",
					lsn, rec.Query, i, asg.Dataset, asg.Node, want.Dataset, want.Node, ErrDivergent)
			}
		}
	case RecordCrash:
		rep, err := e.Crash(rec.At, rec.Node)
		if err != nil {
			return fmt.Errorf("online: replay record %d: %w", lsn, err)
		}
		if rep.LostReplicas != rec.LostReplicas || rep.Repaired != rec.Repaired || len(rep.Evicted) != rec.Evicted {
			return fmt.Errorf("online: record %d: crash of node %d replayed lost=%d repaired=%d evicted=%d, journal has %d/%d/%d: %w",
				lsn, rec.Node, rep.LostReplicas, rep.Repaired, len(rep.Evicted),
				rec.LostReplicas, rec.Repaired, rec.Evicted, ErrDivergent)
		}
	case RecordRestore:
		if err := e.Restore(rec.Node); err != nil {
			return fmt.Errorf("online: replay record %d: %w", lsn, err)
		}
	}
	return nil
}
