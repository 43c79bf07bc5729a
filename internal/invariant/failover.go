// Failover audit: proves a leader→follower promotion preserved the decision
// history exactly once. The argument is structural — the engine is
// deterministic, so if (a) the promoted leader's handoff snapshot equals the
// state an independent replay of the dead leader's journal reaches, and (b)
// the concatenation old-journal ++ new-journal replays cleanly with every
// recorded outcome matching (online.ErrDivergent otherwise), then no acked
// decision was lost, none was applied twice, and no capacity was overcommitted
// across the cut: a double-admit or overcommit would change the replayed
// engine's state and trip the outcome cross-check at the first divergence.

package invariant

import (
	"bytes"
	"fmt"

	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
)

// CheckFailover audits a promotion. oldDir is the dead leader's journal
// directory, newDir the promoted leader's (which must carry the handoff
// snapshot at LSN 0). live, when non-nil, is the promoted engine's current
// state dump, checked against the merged replay's final state. opt should
// carry the engine options both leaders ran with (Journal is ignored).
func CheckFailover(p *placement.Problem, expectedArrivals int, opt online.Options, oldDir, newDir string, live *online.EngineState) error {
	opt.Journal = nil
	opt.SnapshotEvery = 0

	// (a) Replay the dead leader's durable records from scratch — no
	// snapshot shortcut, so the replay itself re-validates every outcome —
	// and compare against the handoff snapshot the promotion published.
	oldSt, err := journal.Load(oldDir)
	if err != nil {
		return fmt.Errorf("invariant: load old leader journal: %w", err)
	}
	oldEng, err := online.Recover(p, expectedArrivals, opt, &journal.State{Records: oldSt.Records})
	if err != nil {
		return fmt.Errorf("invariant: replay old leader journal: %w", err)
	}
	snapBytes, err := journal.SnapshotAt(newDir, 0)
	if err != nil {
		return fmt.Errorf("invariant: promoted leader lacks a handoff snapshot: %w", err)
	}
	handoff, err := online.DecodeSnapshot(snapBytes)
	if err != nil {
		return fmt.Errorf("invariant: decode handoff snapshot: %w", err)
	}
	// Canonical-encoding equality: both sides encoded the same way, so a
	// nil-versus-empty slice difference from the snapshot round trip cannot
	// mask (or fake) a real divergence. CheckRecovered names the field.
	replayed := oldEng.StateDump()
	if !bytes.Equal(online.AppendSnapshot(nil, handoff), online.AppendSnapshot(nil, replayed)) {
		if err := CheckRecovered(handoff, replayed); err != nil {
			return fmt.Errorf("invariant: handoff snapshot diverges from old-journal replay: %w", err)
		}
		return fmt.Errorf("invariant: handoff snapshot diverges from old-journal replay (canonical encodings differ)")
	}

	// (b) The merged stream old ++ new must replay cleanly end to end: the
	// promoted leader's decisions were priced on top of exactly the state
	// the old journal ends in, and every outcome must reproduce.
	newSt, err := journal.Load(newDir)
	if err != nil {
		return fmt.Errorf("invariant: load promoted leader journal: %w", err)
	}
	merged := make([][]byte, 0, len(oldSt.Records)+len(newSt.Records))
	merged = append(merged, oldSt.Records...)
	merged = append(merged, newSt.Records...)
	mergedEng, err := online.Recover(p, expectedArrivals, opt, &journal.State{Records: merged})
	if err != nil {
		return fmt.Errorf("invariant: merged old+new replay diverges: %w", err)
	}
	if live != nil {
		if err := CheckRecovered(mergedEng.StateDump(), live); err != nil {
			return fmt.Errorf("invariant: merged replay does not reach the live promoted state: %w", err)
		}
	}
	return nil
}
