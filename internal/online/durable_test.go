package online_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// first reject to an admission on no nodes (v1 kind byte 2 → 1, and an
	// assignment count of 0 after the query).
	st2, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for i, rec := range st2.Records {
		if rec[0] == 0x01 && rec[1] == 0x02 {
			flipped := append(append([]byte(nil), rec...), 0)
			flipped[1] = 0x01
			st2.Records[i] = flipped
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no reject record found to tamper with")
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
	var atCut *online.EngineState
	for i, a := range server.Arrivals(len(p.Queries), server.DriveConfig{Count: offers, Seed: 2, MeanHoldSec: 0.5}) {
		if _, err := live.Offer(online.Arrival{Query: a.Query, AtSec: a.AtSec, HoldSec: a.HoldSec}); err != nil {
			t.Fatal(err)
		}
		switch n := i + 1; {
		case n == cut:
			atCut = live.StateDump()
		case n > cut && (n-cut)%every == 0:
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
	online.CheckSnapshotMatchesJSON(t, st.Snapshot, atCut)
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

// churnRecover loads dir and recovers it twice — through its newest snapshot
// and from record 1 — requiring both to equal want.
func churnRecover(t *testing.T, dir string, seed int64, nq int, want *online.EngineState) {
	t.Helper()
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil {
		t.Fatal("no snapshot to recover through")
	}
	for _, from := range []*journal.State{st, {Records: st.Records}} {
		e, err := online.Recover(online.ChurnProblem(t, seed, nq), 3*nq, online.Options{}, from)
		if err != nil {
			t.Fatal(err)
		}
		if err := invariant.CheckRecovered(e.StateDump(), want); err != nil {
			t.Fatalf("recovered from LSN %d: %v", from.SnapshotLSN, err)
		}
	}
}

// TestRecoverV0Journal: a journal the binary before the record codec wrote —
// every record v0 JSON — recovers to the state of the same history journaled
// in v1, through a snapshot and replayed from record 1 alike.
func TestRecoverV0Journal(t *testing.T) {
	const seed, nq = 9, 40
	dirs, live := online.ChurnJournals(t, seed, nq, 50)
	if err := invariant.CheckRecovered(live[0], live[1]); err != nil {
		t.Fatalf("the two live engines differ: %v", err)
	}
	for _, dir := range dirs {
		churnRecover(t, dir, seed, nq, live[1])
	}
}

// TestRecoverMixedJournal is the upgrade: the old binary writes a v0 prefix
// (with a snapshot in it) and dies; the new one recovers that prefix and
// writes its own history after it in v1, continuing the old binary's last
// segment, so one segment holds both formats. The whole journal recovers
// through Recover and through a standby fed the segments one at a time, to
// the state of an engine that never stopped.
func TestRecoverMixedJournal(t *testing.T) {
	const seed, nq = 9, 40
	dir := t.TempDir()
	opts := journal.Options{NoSync: true, SegmentBytes: 1024}
	j, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	old := online.NewEngine(online.ChurnProblem(t, seed, nq), 3*nq, online.Options{Journal: j, SnapshotEvery: 30})
	online.Churn(t, online.JournalV0(old), nq, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	v0Records := j.LSN()

	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err = journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	upgraded, err := online.Recover(online.ChurnProblem(t, seed, nq), 3*nq, online.Options{Journal: j}, st)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass < 3; pass++ {
		online.Churn(t, upgraded, nq, pass)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	reference := online.NewEngine(online.ChurnProblem(t, seed, nq), 3*nq, online.Options{})
	for pass := 0; pass < 3; pass++ {
		online.Churn(t, reference, nq, pass)
	}
	want := reference.StateDump()
	churnRecover(t, dir, seed, nq, want)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	standby, err := online.NewRehydrator(online.ChurnProblem(t, seed, nq), 3*nq, online.Options{}, &journal.State{})
	if err != nil {
		t.Fatal(err)
	}
	mixed := 0
	for _, seg := range segs { // Glob sorts, and segment names sort in LSN order
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := journal.DecodeSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		formats := map[byte]bool{}
		for _, rec := range recs {
			formats[rec[0]] = true
			if err := standby.Apply(rec); err != nil {
				t.Fatalf("%s: %v", filepath.Base(seg), err)
			}
		}
		if len(formats) == 2 {
			mixed++
		}
	}
	if err := invariant.CheckRecovered(standby.Engine().StateDump(), want); err != nil {
		t.Fatalf("standby fed segment by segment: %v", err)
	}
	if st.SnapshotLSN == 0 || st.SnapshotLSN >= v0Records || len(segs) < 3 || mixed != 1 {
		t.Fatalf("scenario too weak: v0 snapshot at LSN %d of %d v0 records, %d segments, %d holding both formats",
			st.SnapshotLSN, v0Records, len(segs), mixed)
	}
}

// damageSnapshot flips one payload byte of dir's snapshot at lsn, so that its
// frame fails its CRC.
func damageSnapshot(t *testing.T, dir string, lsn int64) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", lsn))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// snapshotLSNs lists the LSNs of dir's snapshot files, ascending.
func snapshotLSNs(t *testing.T, dir string) []int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	lsns := make([]int64, len(names))
	for i, name := range names {
		if _, err := fmt.Sscanf(filepath.Base(name), "snap-%016d.snap", &lsns[i]); err != nil {
			t.Fatal(err)
		}
	}
	return lsns
}

// TestSnapshotRetention: after five cadence snapshots the journal holds the
// newest two, and when the newest is damaged recovery falls back to the
// other and still reaches the state of an engine that never stopped.
func TestSnapshotRetention(t *testing.T) {
	const every = 7
	dir, _, reference := runJournaled(t, 9, 37, 18, every) // 38 records: snapshots at 7, 14, …, 35
	if got := snapshotLSNs(t, dir); !slices.Equal(got, []int64{4 * every, 5 * every}) {
		t.Fatalf("snapshots at LSNs %v, want the newest two of five", got)
	}
	damageSnapshot(t, dir, 5*every)
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotLSN != 4*every {
		t.Fatalf("recovery loads the snapshot at LSN %d, want the fallback at %d", st.SnapshotLSN, 4*every)
	}
	recovered := recoverFrom(t, dir, 9, 37)
	if err := invariant.CheckRecovered(recovered.StateDump(), reference.StateDump()); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverCrossEraSnapshots is the snapshot upgrade: the old binary
// journals v1 records and a JSON snapshot at LSN n, and dies; the new one
// recovers through that snapshot, writes a binary one at LSN m > n and more
// records after it. The journal recovers through the binary snapshot, through
// the JSON one when the binary one's frame is damaged, and through standbys
// started from either snapshot and fed the segments after it one at a time —
// every time to the state of an engine that never stopped.
func TestRecoverCrossEraSnapshots(t *testing.T) {
	const seed, nq = 9, 40
	dir := t.TempDir()
	opts := journal.Options{NoSync: true, SegmentBytes: 1024}
	j, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	old := online.NewEngine(online.ChurnProblem(t, seed, nq), 3*nq, online.Options{Journal: j})
	online.Churn(t, old, nq, 0)
	if err := online.SnapshotJSON(old, j); err != nil {
		t.Fatal(err)
	}
	n := j.LSN()
	if _, err := old.Offer(online.Arrival{Query: 0, AtSec: float64(nq) - 0.25, HoldSec: 40}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotLSN != n || st.Snapshot[0] != '{' {
		t.Fatalf("the old binary's snapshot: LSN %d, format %q", st.SnapshotLSN, st.Snapshot[0])
	}
	j, err = journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	upgraded, err := online.Recover(online.ChurnProblem(t, seed, nq), 3*nq, online.Options{Journal: j}, st)
	if err != nil {
		t.Fatal(err)
	}
	online.Churn(t, upgraded, nq, 1)
	if err := upgraded.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	m := j.LSN()
	online.Churn(t, upgraded, nq, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	reference := online.NewEngine(online.ChurnProblem(t, seed, nq), 3*nq, online.Options{})
	for pass := 0; pass < 3; pass++ {
		online.Churn(t, reference, nq, pass)
		if pass == 0 {
			if _, err := reference.Offer(online.Arrival{Query: 0, AtSec: float64(nq) - 0.25, HoldSec: 40}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := reference.StateDump()

	for _, era := range []struct {
		lsn    int64
		format byte
	}{{m, 0x01}, {n, '{'}} {
		st, err := journal.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.SnapshotLSN != era.lsn || st.Snapshot[0] != era.format {
			t.Fatalf("recovery loads the snapshot at LSN %d (format %#x), want LSN %d (%#x)", st.SnapshotLSN, st.Snapshot[0], era.lsn, era.format)
		}
		e, err := online.Recover(online.ChurnProblem(t, seed, nq), 3*nq, online.Options{}, st)
		if err != nil {
			t.Fatal(err)
		}
		if err := invariant.CheckRecovered(e.StateDump(), want); err != nil {
			t.Fatalf("recovered through the snapshot at LSN %d: %v", era.lsn, err)
		}

		// A standby started from the snapshot, fed the segments one at a time.
		standby, err := online.NewRehydrator(online.ChurnProblem(t, seed, nq), 3*nq, online.Options{},
			&journal.State{SnapshotLSN: st.SnapshotLSN, Snapshot: st.Snapshot, Records: st.Records[:st.SnapshotLSN]})
		if err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		var lsn int64
		for _, seg := range segs {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			recs, _, err := journal.DecodeSegment(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if lsn++; lsn <= st.SnapshotLSN {
					continue
				}
				if err := standby.Apply(rec); err != nil {
					t.Fatalf("%s: %v", filepath.Base(seg), err)
				}
			}
		}
		if err := invariant.CheckRecovered(standby.Engine().StateDump(), want); err != nil {
			t.Fatalf("standby from the snapshot at LSN %d, fed segment by segment: %v", era.lsn, err)
		}
		if len(segs) < 3 {
			t.Fatalf("scenario too weak: %d segments", len(segs))
		}
		damageSnapshot(t, dir, m)
	}
}
