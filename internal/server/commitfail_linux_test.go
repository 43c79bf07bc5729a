package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"edgerep/internal/journal"
	"edgerep/internal/online"
)

// failSegmentSync is the dying-disk hook: it finds the descriptor the live
// journal holds on its active segment, closes it, and puts /dev/null in its
// place. The journal's writes then vanish and its next fsync fails (EINVAL on
// a character device), which is as close to a disk that stops persisting as
// a test gets without a fault-injecting filesystem. Linux only: it reads
// /proc/self/fd.
func failSegmentSync(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one active segment in %s, have %v (%v)", dir, segs, err)
	}
	active, err := filepath.EvalSymlinks(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := null.Close(); err != nil {
			t.Error(err)
		}
	}()
	for _, e := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || target != active {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		// dup3 closes fd and makes it a copy of null in one step, so the
		// number is never free for another open to take.
		if err := syscall.Dup3(int(null.Fd()), fd, 0); err != nil {
			t.Fatalf("dup3 over the segment's descriptor: %v", err)
		}
		return
	}
	t.Fatalf("the journal holds no descriptor on %s", active)
}

// TestCommitFailFailsClosed: when the epoch's commit fails, every waiter of
// that epoch gets the error (HTTP 500 on the wire), nobody is acked, the
// journal stays poisoned so later epochs fail the same way, and what recovers
// from disk is exactly what was acknowledged before the disk died.
func TestCommitFailFailsClosed(t *testing.T) {
	p, jn, s, dir := newDurableServer(t)
	post := func(epoch int) *httptest.ResponseRecorder {
		body, err := json.Marshal(epochBatch(p, epoch))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admit", bytes.NewReader(body)))
		return rec
	}

	rec := post(0)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy epoch answered %d: %s", rec.Code, rec.Body)
	}
	var acked []AdmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &acked); err != nil || len(acked) != groupCommitEpoch {
		t.Fatalf("healthy epoch: %d responses, %v", len(acked), err)
	}

	failSegmentSync(t, dir)
	rec = post(1)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "journal: sync") {
		t.Fatalf("epoch on a dead disk answered %d %q, want 500 with the sync error", rec.Code, rec.Body)
	}
	if jn.DurableLSN() != groupCommitEpoch || jn.LSN() != 2*groupCommitEpoch {
		t.Fatalf("after the failed commit: LSN %d, DurableLSN %d; want %d written, %d durable",
			jn.LSN(), jn.DurableLSN(), 2*groupCommitEpoch, groupCommitEpoch)
	}
	// Poisoned, not retried: the next epoch fails with the same first error.
	if rec = post(2); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "journal: sync") {
		t.Fatalf("epoch after the failed commit answered %d %q, want the same 500", rec.Code, rec.Body)
	}
	if _, err := s.Crash(p.Cloud.ComputeNodes()[0]); err == nil {
		t.Fatal("Crash on a poisoned journal reported success")
	}
	if err := s.Drain(); err == nil {
		t.Fatal("Drain snapshotted onto a poisoned journal")
	}
	if err := jn.Close(); err == nil {
		t.Fatal("Close of a poisoned journal reported success")
	}

	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := online.Recover(p, 10000, online.Options{}, st)
	if err != nil {
		t.Fatal(err)
	}
	got := recovered.Result().Decisions
	if len(got) != len(acked) {
		t.Fatalf("recovered %d decisions, %d were acknowledged", len(got), len(acked))
	}
	for i, d := range got {
		if d.Query != acked[i].Query || d.Admitted != acked[i].Admitted {
			t.Fatalf("recovered decision %d is %+v, the client was told %+v", i, d, acked[i])
		}
	}
}
