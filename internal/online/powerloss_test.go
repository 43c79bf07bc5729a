package online_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/workload"
)

// activeSegment returns the path and size of the journal's last segment.
func activeSegment(t *testing.T, dir string) (string, int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	fi, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	return segs[len(segs)-1], fi.Size()
}

// TestPowerLossDrill is the drill kill -9 cannot be: a process crash keeps
// the page cache, so it never loses a written-but-unsynced record; a power
// cut does. A durable journal is driven in epochs — offers, a crash and a
// restore, one Commit per epoch, acks only after it — and left with a final
// epoch written but never committed. Then the power goes: for every byte
// offset from the end of the last durable record to the end of the active
// segment, a copy of the directory is cut there, and journal.Load +
// online.Recover must come back — torn or clean, never ErrCorrupt — with
// every acknowledged decision.
func TestPowerLossDrill(t *testing.T) {
	const (
		seed     = 13
		nq       = 60
		perEpoch = 10
	)
	dir := t.TempDir()
	// Small segments and a snapshot cadence, so rotations and snapshots (each
	// a barrier of its own) fall inside epochs.
	j, err := journal.Open(dir, journal.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	p, w := online.NewTestProblem(t, seed, nq)
	eng := online.NewEngine(p, len(w.Queries), online.Options{Journal: j, SnapshotEvery: 25})

	// recordEnd[lsn] is where record lsn ends: its segment and the offset.
	type pos struct {
		seg string
		off int64
	}
	recordEnd := map[int64]pos{}
	wrote := func() {
		seg, size := activeSegment(t, dir)
		recordEnd[j.LSN()] = pos{seg, size}
	}
	var decisionLSN []int64 // LSN of each decision's record, in offer order
	acked := 0              // decisions acknowledged so far
	at := 0.0
	for i := 0; i < nq; i++ {
		if i == 25 {
			victim := busiestNode(eng)
			if _, err := eng.Crash(at, victim); err != nil {
				t.Fatal(err)
			}
			wrote()
			at += 5
			if err := eng.Restore(victim); err != nil {
				t.Fatal(err)
			}
			wrote()
		}
		if _, err := eng.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: at, HoldSec: 120}); err != nil {
			t.Fatal(err)
		}
		wrote()
		decisionLSN = append(decisionLSN, j.LSN())
		at += 10
		if (i+1)%perEpoch != 0 || i+1 == nq {
			continue // mid-epoch, or the final epoch: the power goes before its commit
		}
		if err := eng.Commit(); err != nil {
			t.Fatal(err)
		}
		// The epoch is acknowledged here, and only here.
		acked = i + 1
		for _, lsn := range decisionLSN[:acked] {
			if lsn > j.DurableLSN() {
				t.Fatalf("decision at LSN %d acked with DurableLSN %d", lsn, j.DurableLSN())
			}
		}
	}
	live := eng.Result().Decisions
	durable := j.DurableLSN()
	if durable < decisionLSN[acked-1] || durable >= j.LSN() {
		t.Fatalf("DurableLSN %d at power loss; acked through LSN %d, written through %d", durable, decisionLSN[acked-1], j.LSN())
	}

	// The disk as the power cut finds it: every file as written so far (the
	// journal is deliberately not closed — Close would sync), the active
	// segment cut somewhere past its last durable byte.
	disk := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(disk, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	active, size := activeSegment(t, disk)
	var from int64 // the active segment rotated in after the last barrier
	if end := recordEnd[durable]; filepath.Base(end.seg) == filepath.Base(active) {
		from = end.off
	}
	if from >= size {
		t.Fatalf("nothing unsynced to lose: durable offset %d, segment size %d", from, size)
	}

	recoveries, lastCount := 0, -1
	for off := size; off >= from; off-- {
		if err := os.Truncate(active, off); err != nil {
			t.Fatal(err)
		}
		st, err := journal.Load(disk)
		if err != nil {
			t.Fatalf("cut at %d of %d: a power cut must load torn or clean (corrupt=%v): %v",
				off, size, errors.Is(err, journal.ErrCorrupt), err)
		}
		if int64(len(st.Records)) < durable {
			t.Fatalf("cut at %d of %d: %d records survive, %d were durable", off, size, len(st.Records), durable)
		}
		if len(st.Records) == lastCount {
			continue // same records and snapshot as the last cut: same recovery
		}
		lastCount = len(st.Records)
		rp, rw := online.NewTestProblem(t, seed, nq)
		rec, err := online.Recover(rp, len(rw.Queries), online.Options{}, st)
		if err != nil {
			t.Fatalf("cut at %d of %d (torn=%v): %v", off, size, st.Torn, err)
		}
		got := rec.Result().Decisions
		if len(got) < acked {
			t.Fatalf("cut at %d of %d: recovered %d decisions, %d were acknowledged", off, size, len(got), acked)
		}
		if !reflect.DeepEqual(got, live[:len(got)]) {
			t.Fatalf("cut at %d of %d: recovered decisions differ from the ones served", off, size)
		}
		recoveries++
	}
	if recoveries < 2 {
		t.Fatalf("only %d distinct recoveries over %d cuts; the drill lost its unsynced tail", recoveries, size-from+1)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
