package invariant_test

import (
	"strings"
	"testing"

	"edgerep/internal/federation"
	"edgerep/internal/invariant"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/server"
)

// promoteOnce builds a single-shard leader, drives load through it, kills it
// mid-history, and promotes a standby that shipped its sealed prefix —
// returning everything CheckFailover needs.
func promoteOnce(t *testing.T, count int) (cfg federation.Config, oldDir, newDir string, live *online.EngineState) {
	t.Helper()
	oldDir = t.TempDir()
	newDir = t.TempDir() + "/promoted"
	cfg = federation.Config{
		Region: "r0", Instance: server.DefaultInstance(), Shards: 1,
		ExpectedArrivals: count, SegmentBytes: 2048, NoSync: true, DeterministicClock: true,
	}
	l, err := federation.StartLeader(cfg, oldDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Drive(l.Server(), server.DriveConfig{Count: count, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	st, err := federation.NewStandby(cfg, &federation.LeaderTransport{Leader: l})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if err := l.Kill(); err != nil {
		t.Fatal(err)
	}
	nl, err := st.Promote(oldDir, newDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Drive(nl.Server(), server.DriveConfig{Count: count + 50, Seed: 3, StartIndex: count}); err != nil {
		t.Fatal(err)
	}
	if err := nl.Drain(); err != nil {
		t.Fatal(err)
	}
	return cfg, oldDir, newDir, nl.Server().StateDump()
}

func TestCheckFailoverAcceptsCleanPromotion(t *testing.T) {
	cfg, oldDir, newDir, live := promoteOnce(t, 300)
	p, err := server.BuildInstance(cfg.Instance)
	if err != nil {
		t.Fatal(err)
	}
	opt := online.Options{}
	if err := invariant.CheckFailover(p, 300, opt, oldDir, newDir, live); err != nil {
		t.Fatalf("clean promotion rejected: %v", err)
	}
	// A nil live state skips only the final comparison.
	if err := invariant.CheckFailover(p, 300, opt, oldDir, newDir, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFailoverCatchesWrongHandoff(t *testing.T) {
	cfg, _, newDir, live := promoteOnce(t, 200)
	p, err := server.BuildInstance(cfg.Instance)
	if err != nil {
		t.Fatal(err)
	}
	opt := online.Options{}
	// Auditing the promotion against the WRONG old journal (an empty one)
	// must fail at the handoff-snapshot comparison: the snapshot encodes
	// state the empty history cannot reach.
	emptyDir := t.TempDir()
	err = invariant.CheckFailover(p, 200, opt, emptyDir, newDir, live)
	if err == nil {
		t.Fatal("handoff against an empty old journal accepted")
	}
	if !strings.Contains(err.Error(), "handoff snapshot diverges") {
		t.Fatalf("unexpected failure mode: %v", err)
	}
}

func TestCheckFailoverRequiresHandoffSnapshot(t *testing.T) {
	cfg, oldDir, _, _ := promoteOnce(t, 200)
	p, err := server.BuildInstance(cfg.Instance)
	if err != nil {
		t.Fatal(err)
	}
	// A "promoted" directory with no snapshot at LSN 0 is not auditable.
	bare := t.TempDir()
	jn, err := journal.Open(bare, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jn.Append([]byte(`{"kind":"restore","query":-1,"node":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckFailover(p, 200, online.Options{}, oldDir, bare, nil); err == nil {
		t.Fatal("missing handoff snapshot accepted")
	} else if !strings.Contains(err.Error(), "handoff snapshot") {
		t.Fatalf("unexpected failure mode: %v", err)
	}
}
