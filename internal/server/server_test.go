package server

import (
	"encoding/json"
	"errors"
	"testing"

	"edgerep/internal/invariant"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// zeroClock makes the server fully deterministic: model time comes only from
// the arrival stream's AtSec stamps (the selfdrive contract).
func zeroClock() float64 { return 0 }

func testInstance(t *testing.T) *placement.Problem {
	t.Helper()
	p, err := BuildInstance(DefaultInstance())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestServer(t *testing.T, cfg Config) (*placement.Problem, *Server) {
	t.Helper()
	p := testInstance(t)
	cfg.Clock = zeroClock
	return p, New(p, online.NewEngine(p, 10000, online.Options{}), cfg)
}

// Offers returns how many admission decisions have been made.
func (s *Server) Offers() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.offers
}

func TestAdmitShape(t *testing.T) {
	_, s := newTestServer(t, Config{})
	admits, rejects := 0, 0
	at := 0.0
	for i := 0; i < 200; i++ {
		at += 0.001
		resp, err := s.Admit(AdmitRequest{Query: 0, AtSec: at, HoldSec: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Query != 0 {
			t.Fatalf("response query %d, want 0", resp.Query)
		}
		if resp.Epoch < 1 {
			t.Fatalf("response epoch %d, want >= 1", resp.Epoch)
		}
		if resp.AtSec != at {
			t.Fatalf("response at %g, want %g", resp.AtSec, at)
		}
		if resp.Admitted {
			admits++
			if len(resp.Assignments) == 0 {
				t.Fatal("admitted response has no assignments")
			}
			if resp.Reason != "" {
				t.Fatalf("admitted response carries reason %q", resp.Reason)
			}
		} else {
			rejects++
			if resp.Reason == "" {
				t.Fatal("rejected response has no typed reason")
			}
		}
	}
	if admits == 0 {
		t.Fatal("no query admitted")
	}
	res := s.Result()
	if res.Admitted != admits || res.Rejected != rejects {
		t.Fatalf("engine result %d/%d, responses said %d/%d", res.Admitted, res.Rejected, admits, rejects)
	}
	if s.Offers() != 200 {
		t.Fatalf("server counted %d offers, want 200", s.Offers())
	}
}

func TestUnknownQueryRefused(t *testing.T) {
	p, s := newTestServer(t, Config{})
	if _, err := s.Admit(AdmitRequest{Query: workload.QueryID(len(p.Queries))}); err == nil {
		t.Fatal("out-of-range query was accepted")
	}
	if _, err := s.Admit(AdmitRequest{Query: -1}); err == nil {
		t.Fatal("negative query was accepted")
	}
}

// TestBatchingNeverSemantic locks the ordering contract: the same single-
// submitter stream produces the identical engine state whether micro-epochs
// hold 1 query or 256 — batching is a latency knob only.
func TestBatchingNeverSemantic(t *testing.T) {
	dump := func(cfg Config) []byte {
		_, s := newTestServer(t, cfg)
		if _, err := Drive(s, DriveConfig{Count: 3000, Seed: 11}); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(s.StateDump())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one := dump(Config{EpochMaxQueries: 1})
	big := dump(Config{EpochMaxQueries: 256})
	if string(one) != string(big) {
		t.Fatal("engine state depends on micro-epoch size")
	}
}

func TestDrainClosesAdmission(t *testing.T) {
	_, s := newTestServer(t, Config{})
	if _, err := s.Admit(AdmitRequest{Query: 1, AtSec: 1, HoldSec: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(AdmitRequest{Query: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("admission after drain: err=%v, want ErrDraining", err)
	}
	// Drain is idempotent.
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestDriveReport(t *testing.T) {
	_, s := newTestServer(t, Config{EpochMaxQueries: 64})
	rep, err := Drive(s, DriveConfig{Count: 2000, Seed: 3, Pipeline: 128})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offers != 2000 || rep.Admitted+rep.Rejected != 2000 {
		t.Fatalf("report accounts %d offers (%d+%d)", rep.Offers, rep.Admitted, rep.Rejected)
	}
	if rep.Epochs < 1 {
		t.Fatalf("report epochs %d", rep.Epochs)
	}
	if rep.Occupancy <= 0 || rep.Occupancy > 1 {
		t.Fatalf("occupancy %g out of (0,1]", rep.Occupancy)
	}
	if rep.DecisionsPerSec <= 0 || rep.P95 < rep.P50 || rep.P99 < rep.P95 {
		t.Fatalf("implausible latency report: %s", rep)
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}
}

func TestDriveRejectsBadConfig(t *testing.T) {
	_, s := newTestServer(t, Config{})
	if _, err := Drive(s, DriveConfig{Count: 0}); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := Drive(s, DriveConfig{Count: 10, StartIndex: 10}); err == nil {
		t.Fatal("start index == count accepted")
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashHookFiresExactlyOnce(t *testing.T) {
	_, s := newTestServer(t, Config{})
	fired := 0
	var offersAtFire int64
	s.CrashAfter(50, func() {
		fired++
		offersAtFire = s.offers // epoch lock is held; direct read is safe
	})
	if _, err := Drive(s, DriveConfig{Count: 200, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || offersAtFire != 50 {
		t.Fatalf("crash hook fired %d times at offer %d, want once at 50", fired, offersAtFire)
	}
}

// TestCrashRecoverExactlyOnce is the daemon's torn-tail drill in miniature:
// serve a prefix with a journal, tear the tail mid-write, recover, serve the
// rest, and prove the result field-identical to a never-crashed run — every
// decision accounted exactly once.
func TestCrashRecoverExactlyOnce(t *testing.T) {
	const total, crashAt = 2000, 1200
	p := testInstance(t)

	// Reference: uninterrupted.
	ref := New(p, online.NewEngine(p, total, online.Options{}), Config{Clock: zeroClock})
	if _, err := Drive(ref, DriveConfig{Count: total, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}

	// Crashed: journal a prefix, then tear the tail the way a power cut
	// mid-append would.
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	crashed := New(p, online.NewEngine(p, total, online.Options{Journal: jn}), Config{Clock: zeroClock})
	if _, err := Drive(crashed, DriveConfig{Count: crashAt, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if err := jn.TearTail([]byte("server-test-torn")); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover and finish the stream.
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Fatal("torn tail not detected")
	}
	if len(st.Records) != crashAt {
		t.Fatalf("journal holds %d records, want exactly %d (exactly-once)", len(st.Records), crashAt)
	}
	jn2, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := jn2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	eng, err := online.Recover(p, total, online.Options{Journal: jn2}, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Result().Decisions); got != crashAt {
		t.Fatalf("recovered %d decisions, want %d", got, crashAt)
	}
	resumed := New(p, eng, Config{Clock: zeroClock})
	if _, err := Drive(resumed, DriveConfig{Count: total, Seed: 9, StartIndex: crashAt}); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Drain(); err != nil {
		t.Fatal(err)
	}

	if err := invariant.CheckRecovered(resumed.StateDump(), ref.StateDump()); err != nil {
		t.Fatalf("resumed daemon state differs from never-crashed run: %v", err)
	}
}

func TestInstanceConfigValidate(t *testing.T) {
	bad := []InstanceConfig{
		{Nodes: 1, Datasets: 1, Queries: 1, F: 1, K: 1},
		{Nodes: 10, Datasets: 0, Queries: 1, F: 1, K: 1},
		{Nodes: 10, Datasets: 1, Queries: 0, F: 1, K: 1},
		{Nodes: 10, Datasets: 1, Queries: 1, F: 0, K: 1},
		{Nodes: 10, Datasets: 1, Queries: 1, F: 1, K: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, c)
		}
		if _, err := BuildInstance(c); err == nil {
			t.Fatalf("case %d: BuildInstance accepted invalid config", i)
		}
	}
	if err := DefaultInstance().Validate(); err != nil {
		t.Fatalf("default instance invalid: %v", err)
	}
}
