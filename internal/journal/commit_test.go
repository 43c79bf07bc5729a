package journal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"edgerep/internal/instrument"
)

// syncCounts reads the journal's fsync counters.
func syncCounts() (syncs, records int64) {
	return statSyncs.Value(), statSyncedRecords.Value()
}

// TestGroupCommitBarrier pins the write/commit split: AppendUnsynced moves
// LSN and leaves DurableLSN where it was, Commit is one fsync however many
// records it covers and none when there is nothing to cover, rotation and
// Snapshot are barriers of their own, and Append is one fsync per call.
func TestGroupCommitBarrier(t *testing.T) {
	instrument.Enable()
	defer instrument.Disable()
	// 64-byte frames, four to a segment.
	j, err := Open(t.TempDir(), Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte { return []byte(fmt.Sprintf("group-commit-record-%036d", i)) }
	expect := func(step string, lsn, durable, syncs, records int64) {
		t.Helper()
		gotSyncs, gotRecords := syncCounts()
		if j.LSN() != lsn || j.DurableLSN() != durable || gotSyncs != syncs || gotRecords != records {
			t.Fatalf("%s: LSN %d durable %d after %d fsyncs of %d records, want %d / %d / %d / %d",
				step, j.LSN(), j.DurableLSN(), gotSyncs, gotRecords, lsn, durable, syncs, records)
		}
	}
	s0, r0 := syncCounts()

	for i := 0; i < 3; i++ {
		if _, err := j.AppendUnsynced(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	expect("three unsynced appends", 3, 0, s0, r0)
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	expect("commit", 3, 3, s0+1, r0+3)
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	expect("commit with nothing written", 3, 3, s0+1, r0+3)

	// Records 4 and 5: the fifth does not fit and rotates, which syncs the
	// segment record 4 is in.
	for i := 3; i < 5; i++ {
		if _, err := j.AppendUnsynced(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	expect("rotation", 5, 4, s0+2, r0+4)

	if err := j.Snapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	expect("snapshot", 5, 5, s0+3, r0+5)

	if _, err := j.Append(payload(5)); err != nil {
		t.Fatal(err)
	}
	expect("append", 6, 6, s0+4, r0+6)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitNoSyncTouchesNoDisk: under NoSync the barrier is a flag
// check — DurableLSN follows LSN and no fsync is counted.
func TestGroupCommitNoSyncTouchesNoDisk(t *testing.T) {
	instrument.Enable()
	defer instrument.Disable()
	j, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := syncCounts()
	for i := 0; i < 10; i++ {
		if _, err := j.AppendUnsynced([]byte("nosync")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if s, _ := syncCounts(); s != s0 || j.DurableLSN() != 10 {
		t.Fatalf("NoSync commit: %d fsyncs, DurableLSN %d; want 0 and 10", s-s0, j.DurableLSN())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitAppendZeroAlloc pins the reused frame buffer: framing and
// writing a record allocates nothing.
func TestGroupCommitAppendZeroAlloc(t *testing.T) {
	j, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'x'}, 256)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Append allocates %.1f times per record, want 0", allocs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitFailPoisonsJournal: a failed barrier leaves DurableLSN where it
// was and poisons the journal — nothing written since the last good barrier
// may be acknowledged, now or after a retry.
func TestCommitFailPoisonsJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, "durable")
	if _, err := j.AppendUnsynced([]byte("written, never synced")); err != nil {
		t.Fatal(err)
	}
	if err := j.f.Close(); err != nil {
		t.Fatal(err)
	}
	first := j.Commit()
	if first == nil {
		t.Fatal("Commit on a closed segment succeeded")
	}
	if j.DurableLSN() != 1 {
		t.Fatalf("DurableLSN %d after a failed commit, want 1", j.DurableLSN())
	}
	if err := j.Commit(); !errors.Is(err, first) {
		t.Fatalf("retried Commit = %v, want the first error %v", err, first)
	}
	if _, err := j.AppendUnsynced([]byte("after")); !errors.Is(err, first) {
		t.Fatalf("AppendUnsynced after a failed commit = %v, want %v", err, first)
	}
	if err := j.Snapshot([]byte("state")); !errors.Is(err, first) {
		t.Fatalf("Snapshot after a failed commit = %v, want %v", err, first)
	}
	if err := j.Close(); !errors.Is(err, first) {
		t.Fatalf("Close after a failed commit = %v, want %v", err, first)
	}
}
