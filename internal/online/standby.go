// Warm-standby rehydration: the federation follower's side of WAL shipping.
// Recover replays a finished journal in one shot; a standby instead replays
// an *open-ended* stream — records keep arriving as the leader ships sealed
// segments — and must be promotable at any cut. Rehydrator wraps an Engine
// held in replay mode: Apply feeds it one journaled record at a time (with
// the same outcome cross-check as Recover, so a diverging leader is caught
// at the follower, not at failover), and Promote flips it into a live,
// journaling engine exactly once, at takeover.

package online

import (
	"fmt"

	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/placement"
)

// Rehydrator is an engine held in replay mode, absorbing journal records as
// they are shipped. Not safe for concurrent use; the standby's sync loop is
// the single writer, and anyone reading the engine's state must hold the
// same loop still (the federation Standby serializes with a mutex).
type Rehydrator struct {
	e   *Engine
	lsn int64         // LSN of the last applied record
	rec JournalRecord // decode target, reused from record to record
}

// NewRehydrator builds a standby engine from a loaded journal prefix: the
// engine is constructed exactly as NewEngine would, the snapshot (if any) is
// loaded, every record in st is replayed with outcome cross-checks, and the
// engine is left in replay mode awaiting Apply calls. st may be empty — a
// follower bootstrapping from nothing starts at LSN 0.
func NewRehydrator(p *placement.Problem, expectedArrivals int, opt Options, st *journal.State) (*Rehydrator, error) {
	stripped := opt
	stripped.Journal = nil
	e := NewEngine(p, expectedArrivals, stripped)
	e.replaying = true
	r := &Rehydrator{e: e}
	start := instrument.Mono()
	if st.Snapshot != nil {
		dump, err := DecodeSnapshot(st.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("online: snapshot at LSN %d: %w", st.SnapshotLSN, err)
		}
		e.loadState(dump)
		r.lsn = st.SnapshotLSN
	}
	loaded := instrument.Mono()
	for i := r.lsn; i < int64(len(st.Records)); i++ {
		if err := r.Apply(st.Records[i]); err != nil {
			return nil, err
		}
	}
	e.built.Snapshot, e.built.Replay = loaded-start, instrument.Mono()-loaded
	return r, nil
}

// Apply replays one journaled record (a raw WAL payload) through the
// ordinary input paths and cross-checks the recorded outcome; ErrDivergent
// means the shipped history does not match this replica's deterministic
// replay and the standby must not be promoted.
func (r *Rehydrator) Apply(payload []byte) error {
	if err := DecodeRecord(payload, &r.rec); err != nil {
		return fmt.Errorf("online: journal record %d: %w", r.lsn+1, err)
	}
	if err := r.e.replayRecord(r.lsn+1, &r.rec); err != nil {
		return err
	}
	r.lsn++
	return nil
}

// LSN returns the log sequence number of the last applied record — the
// standby's replication position, which the lag gauge compares against the
// leader's.
func (r *Rehydrator) LSN() int64 { return r.lsn }

// Promote ends replay and returns the engine live: journaling to
// opt.Journal with opt.SnapshotEvery cadence, exactly as a Recover-ed
// engine would continue. The Rehydrator must not be used after Promote.
func (r *Rehydrator) Promote(opt Options) *Engine {
	r.e.replaying = false
	r.e.jn = opt.Journal
	r.e.snapEvery = opt.SnapshotEvery
	return r.e
}
