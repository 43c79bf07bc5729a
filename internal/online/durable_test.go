package online_test

import (
	"errors"
	"strings"
	"testing"

	"edgerep/internal/graph"
	"edgerep/internal/invariant"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/server"
	"edgerep/internal/workload"
)

// script is a deterministic mixed input sequence: offers at 10s spacing with
// finite holds, a crash of the busiest node partway, a restore, then more
// offers. It drives eng and returns the crash victim.
func script(t *testing.T, eng *online.Engine, nq int, crashAfter int) graph.NodeID {
	t.Helper()
	victim := graph.NodeID(-1)
	at := 0.0
	for i := 0; i < nq; i++ {
		if i == crashAfter {
			victim = busiestNode(eng)
			if victim == -1 {
				t.Fatal("no assignments before crash point")
			}
			if _, err := eng.Crash(at, victim); err != nil {
				t.Fatal(err)
			}
			at += 5
			if err := eng.Restore(victim); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: at, HoldSec: 120}); err != nil {
			t.Fatal(err)
		}
		at += 10
	}
	return victim
}

// runJournaled drives the script against a journaled engine and an
// unjournaled reference over the same problem, returning both plus the
// journal directory. snapEvery 0 means WAL-only.
func runJournaled(t *testing.T, seed int64, nq, crashAfter, snapEvery int) (dir string, journaled, reference *online.Engine) {
	t.Helper()
	dir = t.TempDir()
	j, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p, w := online.NewTestProblem(t, seed, nq)
	journaled = online.NewEngine(p, len(w.Queries), online.Options{Journal: j, SnapshotEvery: snapEvery})
	v1 := script(t, journaled, nq, crashAfter)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	p2, _ := online.NewTestProblem(t, seed, nq)
	reference = online.NewEngine(p2, len(w.Queries), online.Options{})
	v2 := script(t, reference, nq, crashAfter)
	if v1 != v2 {
		t.Fatalf("nondeterministic script: victims %d vs %d", v1, v2)
	}
	return dir, journaled, reference
}

func recoverFrom(t *testing.T, dir string, seed int64, nq int) *online.Engine {
	t.Helper()
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, w := online.NewTestProblem(t, seed, nq)
	e, err := online.Recover(p, len(w.Queries), online.Options{}, st)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRecoverCleanShutdownFieldIdentical(t *testing.T) {
	dir, journaled, reference := runJournaled(t, 7, 40, 20, 0)
	recovered := recoverFrom(t, dir, 7, 40)
	if err := invariant.CheckRecovered(recovered.StateDump(), reference.StateDump()); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckRecovered(recovered.StateDump(), journaled.StateDump()); err != nil {
		t.Fatalf("recovered vs the journaled original: %v", err)
	}
}

func TestRecoverWithSnapshots(t *testing.T) {
	// Snapshot cadence must not change the recovered state, only shorten
	// replay.
	for _, every := range []int{1, 5, 17} {
		dir, _, reference := runJournaled(t, 9, 35, 18, every)
		recovered := recoverFrom(t, dir, 9, 35)
		if err := invariant.CheckRecovered(recovered.StateDump(), reference.StateDump()); err != nil {
			t.Fatalf("SnapshotEvery=%d: %v", every, err)
		}
		st, err := journal.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Snapshot == nil {
			t.Fatalf("SnapshotEvery=%d produced no snapshot", every)
		}
	}
}

func TestRecoverTornTailIsPrefixRun(t *testing.T) {
	// Tear the tail mid-record, as proc-crash does: recovery must equal a
	// reference run over the surviving prefix of inputs.
	const nq, crashAfter = 30, 12
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p, w := online.NewTestProblem(t, 5, nq)
	e := online.NewEngine(p, len(w.Queries), online.Options{Journal: j, SnapshotEvery: 6})
	script(t, e, nq, crashAfter)
	if err := j.TearTail([]byte(`{"kind":"offer","at":9e9,"query":0,"node":-1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Fatal("torn tail not detected")
	}
	survivors := len(st.Records)
	p2, _ := online.NewTestProblem(t, 5, nq)
	recovered, err := online.Recover(p2, len(w.Queries), online.Options{}, st)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same script truncated to the surviving record count.
	p3, _ := online.NewTestProblem(t, 5, nq)
	reference := online.NewEngine(p3, len(w.Queries), online.Options{})
	applied := 0
	at := 0.0
	for i := 0; i < nq && applied < survivors; i++ {
		if i == crashAfter {
			v := busiestNode(reference)
			if _, err := reference.Crash(at, v); err != nil {
				t.Fatal(err)
			}
			applied++
			at += 5
			if applied < survivors {
				if err := reference.Restore(v); err != nil {
					t.Fatal(err)
				}
				applied++
			}
			if applied >= survivors {
				break
			}
		}
		if _, err := reference.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: at, HoldSec: 120}); err != nil {
			t.Fatal(err)
		}
		applied++
		at += 10
	}
	if err := invariant.CheckRecovered(recovered.StateDump(), reference.StateDump()); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverResumesJournaling(t *testing.T) {
	// A recovered engine with the journal re-attached continues the log, and
	// a second recovery sees the combined history.
	const nq = 20
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p, w := online.NewTestProblem(t, 3, nq)
	e := online.NewEngine(p, len(w.Queries), online.Options{Journal: j})
	for i := 0; i < nq/2; i++ {
		if _, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i) * 10, HoldSec: 120}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if j2.LSN() != int64(nq/2) {
		t.Fatalf("reopened journal at LSN %d, want %d", j2.LSN(), nq/2)
	}
	p2, _ := online.NewTestProblem(t, 3, nq)
	e2, err := online.Recover(p2, len(w.Queries), online.Options{Journal: j2}, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := nq / 2; i < nq; i++ {
		if _, err := e2.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i) * 10, HoldSec: 120}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Records) != nq {
		t.Fatalf("combined journal has %d records, want %d", len(st2.Records), nq)
	}
	p3, _ := online.NewTestProblem(t, 3, nq)
	final, err := online.Recover(p3, len(w.Queries), online.Options{}, st2)
	if err != nil {
		t.Fatal(err)
	}
	p4, _ := online.NewTestProblem(t, 3, nq)
	reference := online.NewEngine(p4, len(w.Queries), online.Options{})
	for i := 0; i < nq; i++ {
		if _, err := reference.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i) * 10, HoldSec: 120}); err != nil {
			t.Fatal(err)
		}
	}
	if err := invariant.CheckRecovered(final.StateDump(), reference.StateDump()); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverDivergenceDetected(t *testing.T) {
	dir, _, _ := runJournaled(t, 13, 25, 10, 0)
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying against a DIFFERENT problem (other seed) must not silently
	// fabricate state: either an input is outright inapplicable or an
	// outcome mismatches — both surface as errors, the latter typed.
	p, w := online.NewTestProblem(t, 14, 25)
	if _, err := online.Recover(p, len(w.Queries), online.Options{}, st); err == nil {
		t.Fatal("recovery against a different problem succeeded")
	}

	// Tampering with a recorded outcome is caught as online.ErrDivergent: flip the
	// first admit outcome to a reject.
	st2, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	const admit, reject = `"event":"admit"`, `"event":"reject"`
	tampered := false
	for i, rec := range st2.Records {
		if s := string(rec); strings.Contains(s, admit) {
			st2.Records[i] = []byte(strings.Replace(s, admit, reject, 1))
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no admit record found to tamper with")
	}
	p2, w2 := online.NewTestProblem(t, 13, 25)
	if _, err := online.Recover(p2, len(w2.Queries), online.Options{}, st2); !errors.Is(err, online.ErrDivergent) {
		t.Fatalf("tampered journal: err=%v, want online.ErrDivergent", err)
	}
}

func TestStateDumpRoundTrip(t *testing.T) {
	// loadState(StateDump()) is the identity on the canonical state — the
	// property snapshots rely on, including +Inf hold-forever releases.
	e, w := runAll(t, 21, 30, 0) // HoldSec 0 → Forever releases
	v := busiestNode(e)
	if _, err := e.Crash(1e6, v); err != nil {
		t.Fatal(err)
	}
	dump := e.StateDump()
	p2, _ := online.NewTestProblem(t, 21, 30)
	e2 := online.NewEngine(p2, len(w.Queries), online.Options{})
	e2.TestLoadState(dump)
	if err := invariant.CheckRecovered(e2.StateDump(), e.StateDump()); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverThroughSnapshotBitExact(t *testing.T) {
	// The bench's wire-durable arrival shape at its seed 2: 60 queries drawn
	// again and again with holds of half a second, so two demands of one
	// query served from one node expire at the same instant all the time. A
	// heap rebuilt from a snapshot is laid out differently from one grown by
	// pushes; if tied expiries popped in layout order, the two engines would
	// subtract from that node's load in different orders and differ in its
	// last bit until the node next drains to zero. So the standby loaded from
	// the snapshot is walked through the WAL suffix in step with the engine
	// that never stopped, and compared — exactly — all along the way.
	const cut, offers, every = 4500, 8999, 50 // one snapshot, at LSN cut
	p, err := server.BuildInstance(server.DefaultInstance())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	live := online.NewEngine(p, offers, online.Options{Journal: j, SnapshotEvery: cut})
	var liveAt []*online.EngineState // after offer cut+every, cut+2·every, …
	for i, a := range server.Arrivals(len(p.Queries), server.DriveConfig{Count: offers, Seed: 2, MeanHoldSec: 0.5}) {
		if _, err := live.Offer(online.Arrival{Query: a.Query, AtSec: a.AtSec, HoldSec: a.HoldSec}); err != nil {
			t.Fatal(err)
		}
		if n := i + 1; n > cut && (n-cut)%every == 0 {
			liveAt = append(liveAt, live.StateDump())
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil || st.SnapshotLSN != cut || len(st.Records) != offers {
		t.Fatalf("journal has %d records and a snapshot at LSN %d, want %d and %d", len(st.Records), st.SnapshotLSN, offers, cut)
	}
	suffix := st.Records[cut:]
	st.Records = st.Records[:cut]
	p2, err := server.BuildInstance(server.DefaultInstance())
	if err != nil {
		t.Fatal(err)
	}
	standby, err := online.NewRehydrator(p2, offers, online.Options{}, st)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range suffix {
		if err := standby.Apply(rec); err != nil {
			t.Fatal(err)
		}
		if n := i + 1; n%every == 0 {
			if err := invariant.CheckRecovered(standby.Engine().StateDump(), liveAt[n/every-1]); err != nil {
				t.Fatalf("%d records past the snapshot at LSN %d: %v", n, cut, err)
			}
		}
	}
}
