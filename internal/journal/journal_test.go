package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func mustAppend(t *testing.T, j *Journal, payload string) int64 {
	t.Helper()
	lsn, err := j.Append([]byte(payload))
	if err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
	return lsn
}

func TestJournalAppendLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var want [][]byte
	for i := 0; i < 25; i++ {
		p := fmt.Sprintf("record-%03d", i)
		want = append(want, []byte(p))
		if lsn := mustAppend(t, j, p); lsn != int64(i+1) {
			t.Fatalf("record %d got LSN %d", i, lsn)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Torn {
		t.Fatalf("clean journal reported torn")
	}
	if st.Snapshot != nil || st.SnapshotLSN != 0 {
		t.Fatalf("unexpected snapshot: lsn=%d", st.SnapshotLSN)
	}
	if len(st.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(st.Records), len(want))
	}
	for i := range want {
		if !bytes.Equal(st.Records[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, st.Records[i], want[i])
		}
	}
}

func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 64, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		mustAppend(t, j, fmt.Sprintf("rotating-record-%04d", i))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected >=3 segments at 64-byte rotation, got %d", len(segs))
	}
	for i, idx := range segs {
		if idx != i+1 {
			t.Fatalf("segment indexes not contiguous from 1: %v", segs)
		}
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Records) != n {
		t.Fatalf("got %d records across segments, want %d", len(st.Records), n)
	}
}

func TestJournalReopenAppends(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, j, "first")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if j2.LSN() != 1 {
		t.Fatalf("reopen LSN = %d, want 1", j2.LSN())
	}
	if lsn := mustAppend(t, j2, "second"); lsn != 2 {
		t.Fatalf("post-reopen LSN = %d, want 2", lsn)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Records) != 2 || string(st.Records[1]) != "second" {
		t.Fatalf("unexpected records after reopen: %q", st.Records)
	}
}

func TestJournalTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, j, "alpha")
	mustAppend(t, j, "beta")
	if err := j.TearTail([]byte("gamma-never-lands")); err != nil {
		t.Fatalf("TearTail: %v", err)
	}
	if _, err := j.Append([]byte("after-tear")); err == nil {
		t.Fatalf("Append after TearTail should fail")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close after tear: %v", err)
	}

	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load of torn journal: %v", err)
	}
	if !st.Torn {
		t.Fatalf("torn tail not reported")
	}
	if len(st.Records) != 2 || string(st.Records[0]) != "alpha" || string(st.Records[1]) != "beta" {
		t.Fatalf("valid prefix lost: %q", st.Records)
	}

	// Open truncates the tear and appends continue from the valid prefix.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after tear: %v", err)
	}
	if j2.LSN() != 2 {
		t.Fatalf("LSN after torn-tail truncation = %d, want 2", j2.LSN())
	}
	mustAppend(t, j2, "gamma-retried")
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2, err := Load(dir)
	if err != nil {
		t.Fatalf("Load after recovery append: %v", err)
	}
	if st2.Torn {
		t.Fatalf("journal still torn after truncation")
	}
	if len(st2.Records) != 3 || string(st2.Records[2]) != "gamma-retried" {
		t.Fatalf("post-recovery records: %q", st2.Records)
	}
}

func TestJournalMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 64, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, j, fmt.Sprintf("corruptible-record-%04d", i))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need >=2 segments, got %v (err %v)", segs, err)
	}
	// Flip a payload bit in the FIRST segment: damage before the tail.
	path := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[headerSize+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of mid-log corruption: err=%v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of mid-log corruption: err=%v, want ErrCorrupt", err)
	}
}

func TestJournalSegmentGapRejected(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 64, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, j, fmt.Sprintf("gap-record-%04d", i))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %v (err %v)", segs, err)
	}
	if err := os.Remove(filepath.Join(dir, segName(segs[1]))); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load with segment gap: err=%v, want ErrCorrupt", err)
	}
}

func TestJournalSnapshotAndSuffix(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, j, fmt.Sprintf("pre-%d", i))
	}
	if err := j.Snapshot([]byte("state-after-5")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, j, fmt.Sprintf("post-%d", i))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.SnapshotLSN != 5 || string(st.Snapshot) != "state-after-5" {
		t.Fatalf("snapshot lsn=%d payload=%q", st.SnapshotLSN, st.Snapshot)
	}
	if len(st.Records) != 8 {
		t.Fatalf("got %d records, want 8", len(st.Records))
	}
	suffix := st.Records[st.SnapshotLSN:]
	if len(suffix) != 3 || string(suffix[0]) != "post-0" {
		t.Fatalf("replay suffix wrong: %q", suffix)
	}
}

func TestJournalNewerSnapshotWins(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, j, "a")
	if err := j.Snapshot([]byte("snap-1")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	mustAppend(t, j, "b")
	if err := j.Snapshot([]byte("snap-2")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.SnapshotLSN != 2 || string(st.Snapshot) != "snap-2" {
		t.Fatalf("newest snapshot not chosen: lsn=%d payload=%q", st.SnapshotLSN, st.Snapshot)
	}
}

func TestJournalSnapshotAheadOfLogSkipped(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, j, "a")
	if err := j.Snapshot([]byte("snap-at-1")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Forge a snapshot claiming an LSN beyond the surviving log.
	forged := encodeFrame(nil, []byte("snap-from-the-future"))
	if err := os.WriteFile(filepath.Join(dir, snapName(99)), forged, 0o644); err != nil {
		t.Fatalf("write forged snapshot: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.SnapshotLSN != 1 || string(st.Snapshot) != "snap-at-1" {
		t.Fatalf("future snapshot not skipped: lsn=%d payload=%q", st.SnapshotLSN, st.Snapshot)
	}
}

func TestJournalDamagedSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, j, "a")
	if err := j.Snapshot([]byte("snap-good")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	mustAppend(t, j, "b")
	if err := j.Snapshot([]byte("snap-doomed")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Corrupt the newest snapshot; Load must fall back to the older one.
	path := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.SnapshotLSN != 1 || string(st.Snapshot) != "snap-good" {
		t.Fatalf("fallback failed: lsn=%d payload=%q", st.SnapshotLSN, st.Snapshot)
	}
}

func TestJournalEmptyAndMissing(t *testing.T) {
	st, err := Load(filepath.Join(t.TempDir(), "does-not-exist"))
	if err != nil {
		t.Fatalf("Load of missing dir: %v", err)
	}
	if len(st.Records) != 0 || st.Snapshot != nil || st.Torn {
		t.Fatalf("missing dir not empty: %+v", st)
	}
	if _, err := Load(t.TempDir()); err != nil {
		t.Fatalf("Load of empty dir: %v", err)
	}
}

func TestJournalRejectsEmptyRecord(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := j.Append(nil); err == nil {
		t.Fatalf("empty Append accepted")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestDecodeSegmentClassification(t *testing.T) {
	rec := func(payloads ...string) []byte {
		var b []byte
		for _, p := range payloads {
			b = encodeFrame(b, []byte(p))
		}
		return b
	}
	cases := []struct {
		name    string
		data    []byte
		want    error
		nilErr  bool
		numRecs int
	}{
		{name: "clean", data: rec("a", "bb", "ccc"), nilErr: true, numRecs: 3},
		{name: "empty", data: nil, nilErr: true},
		{name: "short header", data: rec("a")[:4], want: ErrTornTail, numRecs: 0},
		{name: "truncated payload", data: rec("a", "bb")[:len(rec("a"))+headerSize+1], want: ErrTornTail, numRecs: 1},
		{name: "zero filled tail", data: append(rec("a"), make([]byte, 16)...), want: ErrTornTail, numRecs: 1},
		{name: "zero length mid-log", data: append(append(rec("a"), 0, 0, 0, 0, 9, 9, 9, 9), rec("b")...), want: ErrCorrupt, numRecs: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, consumed, err := DecodeSegment(tc.data)
			if tc.nilErr {
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
			} else if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if len(recs) != tc.numRecs {
				t.Fatalf("recs = %d, want %d", len(recs), tc.numRecs)
			}
			if consumed > len(tc.data) {
				t.Fatalf("consumed %d of %d bytes", consumed, len(tc.data))
			}
		})
	}

	// CRC mismatch on the final frame is torn; the same damage followed by
	// more bytes is corruption.
	two := rec("aaaa", "bbbb")
	oneLen := len(rec("aaaa"))
	last := append([]byte(nil), two...)
	last[len(last)-1] ^= 0x01
	if _, _, err := DecodeSegment(last); !errors.Is(err, ErrTornTail) {
		t.Fatalf("final-frame CRC mismatch: err=%v, want ErrTornTail", err)
	}
	mid := append([]byte(nil), two...)
	mid[oneLen-1] ^= 0x01 // damage the first record's payload
	if _, _, err := DecodeSegment(mid); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log CRC mismatch: err=%v, want ErrCorrupt", err)
	}

	// Oversized length claims: torn when it points past the end, corrupt
	// when the data is somehow long enough to "contain" it.
	var huge [headerSize]byte
	binary.LittleEndian.PutUint32(huge[0:], maxRecordBytes+1)
	if _, _, err := DecodeSegment(huge[:]); !errors.Is(err, ErrTornTail) {
		t.Fatalf("oversized frame at tail: err=%v, want ErrTornTail", err)
	}
}

// TestSnapshotRetention: each published snapshot deletes the snapshots older
// than the one before it, except the one at LSN 0, which a promoted journal
// holds as its handoff state.
func TestSnapshotRetention(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Snapshot([]byte("handoff")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 1; i <= 4; i++ {
		mustAppend(t, j, fmt.Sprintf("r%d", i))
		if err := j.Snapshot([]byte(fmt.Sprintf("snap-%d", i))); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		lsns, err := listSnapshots(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{int64(i), int64(i - 1), 0}[:min(i+1, 3)]
		if !slices.Equal(lsns, want) {
			t.Fatalf("after the snapshot at LSN %d: snapshots at %v, want %v", i, lsns, want)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, err := SnapshotAt(dir, 0); err != nil || string(got) != "handoff" {
		t.Fatalf("handoff snapshot: %q, %v", got, err)
	}
}
