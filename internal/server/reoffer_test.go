package server

import (
	"os"
	"path/filepath"
	"testing"

	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/workload"
)

// copyJournal copies every regular file of a journal directory: what a
// kill -9 at this instant would leave on disk, since written records
// survive the process in the page cache.
func copyJournal(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TestReofferAfterCrashAdmitsTwice pins what a request without an id gets
// when the daemon dies after its epoch's records are written and before the
// epoch is committed and answered: the records survive a kill -9 and are
// replayed on restart, the client saw no answer and re-offers as
// OPERATIONS.md says, and the daemon cannot tell the re-offer from a new
// arrival, so the request is admitted twice.
func TestReofferAfterCrashAdmitsTwice(t *testing.T) {
	p, _, s, dir := newNoSyncServer(t, groupCommitEpoch)
	reqs := epochBatch(p, 0)
	crashed := t.TempDir()
	var copyErr error
	// The hook fires on the epoch's last offer, with every record of the
	// epoch written and none committed or delivered.
	s.CrashAfter(int64(len(reqs)), func() { copyErr = copyJournal(dir, crashed) })
	if _, _, err := s.dispatch(reqs, new(admitScratch)); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if copyErr != nil {
		t.Fatal(copyErr)
	}

	// Restart from what the crash left.
	st, err := journal.Load(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != len(reqs) {
		t.Fatalf("the crash left %d records, want the epoch's %d", len(st.Records), len(reqs))
	}
	jn, err := journal.Open(crashed, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = jn.Close() })
	eng, err := online.Recover(p, 20000, online.Options{Journal: jn}, st)
	if err != nil {
		t.Fatal(err)
	}
	replayed := eng.Result().Decisions
	s2 := New(p, eng, Config{Clock: zeroClock, EpochMaxQueries: groupCommitEpoch})
	resps, _, err := s2.dispatch(reqs, new(admitScratch))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}

	// Every request of the epoch names a distinct query, so a query's
	// admissions in the recovered history are its request's admissions.
	seen := map[workload.QueryID]bool{}
	for _, req := range reqs {
		if seen[req.Query] {
			t.Fatalf("query %d is named twice in the epoch", req.Query)
		}
		seen[req.Query] = true
	}
	twice := 0
	for i, req := range reqs {
		admissions := 0
		for _, d := range s2.Result().Decisions {
			if d.Query == req.Query && d.Admitted {
				admissions++
			}
		}
		want := 0
		if replayed[i].Admitted {
			want++
		}
		if resps[i].Admitted {
			want++
		}
		if admissions != want {
			t.Fatalf("request %d: %d admissions, want %d", i, admissions, want)
		}
		if admissions == 2 {
			twice++
		}
	}
	if twice == 0 {
		t.Fatal("no re-offered request was admitted twice")
	}
	t.Logf("%d of %d re-offered requests admitted twice", twice, len(reqs))
}
