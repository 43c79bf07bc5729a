package server

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/invariant"
	"edgerep/internal/online"
)

// TestFastPathStaleTableFuzz interleaves liveness mutations with concurrent
// admission: a chaos goroutine crashes compute nodes through Server.Crash
// (taking the epoch lock mid-drive, bumping the liveness generation the fast
// path fences on) while the load driver streams offers. The recorded trace
// then replays through the first-principles checker — if a decision ever
// priced against a stale table (admitting through a dead node, or
// classifying a rejection against a liveness the engine no longer had), the
// replay flags it. Crash-only churn during the traced phase: the trace
// vocabulary has no restore event, so the replay's down set is monotone.
func TestFastPathStaleTableFuzz(t *testing.T) {
	const count = 4000
	p := testInstance(t)
	instrument.ResetTrace()
	var buf bytes.Buffer
	sink := instrument.NewJSONLSink(&buf)
	instrument.SetTraceSink(sink)
	defer instrument.ResetTrace()

	eng := online.NewEngine(p, count, online.Options{})
	s := New(p, eng, Config{Clock: zeroClock})

	compute := p.Cloud.ComputeNodes()
	// Crash at most a third of the compute tier so capacity survives.
	maxCrashes := len(compute) / 3
	if maxCrashes == 0 {
		maxCrashes = 1
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	crashed := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for crashed < maxCrashes {
			select {
			case <-stop:
				return
			default:
			}
			v := compute[rng.Intn(len(compute))]
			if _, err := s.Crash(v); err == nil {
				crashed++
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	if _, err := Drive(s, DriveConfig{Count: count, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	instrument.ResetTrace()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if crashed == 0 {
		t.Fatal("chaos goroutine crashed nothing; the fuzz exercised no staleness")
	}
	if st := s.FastPathStats(); st.Refreshes == 0 {
		t.Fatalf("liveness churn never moved the fast-path fence: %+v", st)
	}

	events, err := instrument.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runs := instrument.SplitTraceRuns(events)
	if len(runs) != 1 {
		t.Fatalf("fuzz trace has %d runs, want 1", len(runs))
	}
	opt := invariant.TraceOptions{Online: true, Final: eng.Solution()}
	if vs := invariant.CheckTrace(p, runs[0], opt); len(vs) != 0 {
		t.Fatalf("fuzz trace has %d violations; first: %v", len(vs), vs[0])
	}
}

// TestFastPathRestoreChurnRace is the restore half of the staleness story —
// crash/restore cycles under concurrent admission, run for the race detector
// and the capacity-ledger invariants rather than trace replay (restores are
// not in the trace vocabulary, and the drive's with-replacement stream can
// legitimately admit one query twice, which the offline validator rejects).
// After the churn, no node may sit above its capacity or below zero, and no
// allocation may remain on a node that is still down.
func TestFastPathRestoreChurnRace(t *testing.T) {
	const count = 3000
	p := testInstance(t)
	eng := online.NewEngine(p, count, online.Options{})
	s := New(p, eng, Config{Clock: zeroClock})

	compute := p.Cloud.ComputeNodes()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		var down []graph.NodeID
		for {
			select {
			case <-stop:
				for _, v := range down {
					_ = s.Restore(v)
				}
				return
			default:
			}
			if len(down) > 2 || (len(down) > 0 && rng.Intn(2) == 0) {
				v := down[0]
				down = down[1:]
				_ = s.Restore(v)
			} else {
				v := compute[rng.Intn(len(compute))]
				if _, err := s.Crash(v); err == nil {
					down = append(down, v)
				}
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	if _, err := Drive(s, DriveConfig{Count: count, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st := eng.StateDump()
	down := make(map[graph.NodeID]bool)
	for _, v := range st.Down {
		down[v] = true
	}
	for _, u := range st.Used {
		if u.GHz < 0 || u.GHz > p.Cloud.Capacity(u.Node)+1e-9 {
			t.Errorf("node %d holds %v GHz of %v capacity after churn", u.Node, u.GHz, p.Cloud.Capacity(u.Node))
		}
		if down[u.Node] {
			t.Errorf("node %d is down but still holds %v GHz", u.Node, u.GHz)
		}
	}
	if fp := s.FastPathStats(); fp.Refreshes == 0 {
		t.Fatalf("restore churn never moved the fast-path fence: %+v", fp)
	}
}

// TestFastPathChaosLatencySmoke is the ci.sh latency gate: a short drive at
// the benchmark's pipeline depth with crash/restore churn running (at least
// one node must actually crash during the drive) must keep the
// enqueue-to-decision p95 under a bound loose enough for a loaded CI machine
// (20ms; bench/'s latency columns measure the real number) — it exists to
// catch order-of-magnitude regressions like a table rebuild on the pricing
// path, not to re-measure the benchmark.
func TestFastPathChaosLatencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("latency smoke")
	}
	const count = 20000
	p := testInstance(t)
	eng := online.NewEngine(p, count, online.Options{})
	s := New(p, eng, Config{Clock: zeroClock})
	compute := p.Cloud.ComputeNodes()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	crashes := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			v := compute[k%len(compute)]
			if _, err := s.Crash(v); err == nil {
				crashes++
				time.Sleep(time.Millisecond)
				_ = s.Restore(v)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	rep, err := Drive(s, DriveConfig{Count: count, Seed: 7, Pipeline: 128})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if crashes == 0 {
		t.Error("the drive finished before the chaos loop crashed a single node")
	}
	if rep.P95 > 20*time.Millisecond {
		t.Errorf("chaos-on admission p95 %v, smoke bound is 20ms (quiet-hardware target <1ms)", rep.P95)
	}
}

// TestAckConvoyRegression guards the two-phase epoch loop: with one OS
// thread, the attributed stage-sum p95 must land in [0.5, 1.1]× of the
// end-to-end p95 (it reads ≈ 0.97–1.0). The old loop delivered each
// response inside the pricing critical section and leaned on a scheduler
// yield every 32 offers; when that went wrong, responses convoyed behind
// the epoch loop and the gap between attributed and measured latency blew
// up — the exact signature this asserts against.
func TestAckConvoyRegression(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const count = 8000
	p := testInstance(t)
	instrument.EnableAttribution()
	defer instrument.DisableAttribution()

	s := New(p, online.NewEngine(p, count, online.Options{}), Config{Clock: zeroClock})
	rep, err := Drive(s, DriveConfig{Count: count, Seed: 9, Pipeline: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if rep.StageSumP95 == 0 || rep.P95 == 0 {
		t.Fatalf("drive recorded no attributed latency: %+v", rep)
	}
	r := float64(rep.StageSumP95) / float64(rep.P95)
	if r < 0.5 {
		t.Errorf("stage-sum p95 %v is only %.2fx the end-to-end p95 %v; responses are convoying outside attribution",
			rep.StageSumP95, r, rep.P95)
	}
	if r > 1.1 {
		t.Errorf("stage-sum p95 %v exceeds the end-to-end p95 %v by %.2fx; stage stamps overlap", rep.StageSumP95, rep.P95, r)
	}
}
