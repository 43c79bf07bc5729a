package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/server"
)

// runner is one run of one workload: the budget it was given, the scratch
// directory its journals live in, and everything it has measured so far.
type runner struct {
	sp      spec
	seed    int64
	seconds float64
	traced  bool

	// root is the scratch directory: every journal of the run lives under
	// it, on whatever filesystem the working directory is on, and it is
	// removed when the run ends.
	root  string
	ndirs int

	tr  *tracer
	s   samples
	req int64 // span request ids

	// mu guards the tallies' failed and notes, which client goroutines write.
	mu sync.Mutex

	// home and guards count offers (queries, for a solve): the home section's
	// and the guard sections', so that the result line's attempted is the
	// workload's own traffic and a guard's failure still fails the run. An
	// offer fails when it errors, times out, is answered wrongly, or belongs
	// to a round whose verification failed. inGuard says which of the two the
	// code that is running counts into.
	home, guards tally
	inGuard      bool
	// notes are the reasons for failed; a run with any is not correct.
	notes []string

	// pending are the guard sections' steps still to take, in order. They are
	// taken between the rounds of the home section, evenly over its budget,
	// and not in one block: the sandbox has slow seconds, and readings taken
	// back to back share one. guardSteps and guardSpent are how many have been
	// taken and how long they took, from which the home section reserves time
	// for the rest.
	pending    []func() error
	guardSteps int
	guardSpent time.Duration

	// postMs pools the client-observed latency of every POST of the wire
	// section, across its rounds: percentiles are read off the pool. The
	// closed loop pools them scaled to the reference disk (refAppendSyncUs)
	// and keeps the readings as measured in rawPostMs.
	postMs, rawPostMs []float64
	// asideMs are the latencies of the open-loop rounds whose generator did
	// not keep time (lateRounds of them): measured, but not pooled.
	asideMs    []float64
	lateRounds int
	// remarks are things a reader of the report should know that are not
	// failures: a round set aside, and why.
	remarks []string
}

// tally counts offers attempted and failed.
type tally struct{ attempted, failed int }

func (r *runner) tally() *tally {
	if r.inGuard {
		return &r.guards
	}
	return &r.home
}

// count records n offers as attempted.
func (r *runner) count(n int) { r.tally().attempted += n }

func zeroClock() float64 { return 0 }

// warmSeed seeds the warm-up stream, which is the same whatever -seed says.
const warmSeed = 1

// warmConfig is the warm-up every daemon of the benchmark serves, untimed,
// before its seeded traffic. The engine replicates lazily, up to K replicas a
// dataset, wherever the first few hundred admitted queries happen to want
// them, and which queries are feasible for the rest of the run follows from
// that: fed different seeds from a cold start, the same instance settles at
// anything from 33% to 39% admitted, and the admit path's cost is quadratic
// in admits. One fixed prefix settles placement the same way every time, so
// seeds vary the traffic and not the deployment it meets.
func (r *runner) warmConfig(holdSec float64) server.DriveConfig {
	return server.DriveConfig{Count: r.sp.warmOffers, Seed: warmSeed, Pipeline: 512, MeanHoldSec: holdSec}
}

func (r *runner) warm(s *server.Server, holdSec float64) error {
	_, err := server.Drive(s, r.warmConfig(holdSec))
	return err
}

func newRunner(sp spec, seed int64, seconds float64, traced bool, scratch string) (*runner, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	root, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	return &runner{sp: sp, seed: seed, seconds: seconds, traced: traced,
		root: root, tr: newTracer(traced), s: make(samples)}, nil
}

func (r *runner) cleanup() error { return os.RemoveAll(r.root) }

// roundDir returns a fresh directory for one round's journals and the
// function that removes it when the round is over (keeping the round's error,
// if it has one). Removing it there and not at exit matters: unlinked files
// take their dirty pages with them, so one round's unsynced journals are not
// written back underneath the next round's fsyncs.
func (r *runner) roundDir(kind string) (string, func(*error)) {
	r.ndirs++
	dir := filepath.Join(r.root, fmt.Sprintf("%s-%d", kind, r.ndirs))
	return dir, func(errp *error) {
		if err := os.RemoveAll(dir); *errp == nil {
			*errp = err
		}
	}
}

func (r *runner) nextReq() int64 {
	r.req++
	return r.req
}

// fail charges n offers to a verification or transport failure.
func (r *runner) fail(n int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tally().failed += n
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// note keeps a remark for the report.
func (r *runner) note(format string, args ...any) {
	if len(r.remarks) < 8 {
		r.remarks = append(r.remarks, fmt.Sprintf(format, args...))
	}
}

// setAside keeps one open-loop round's latencies out of the pool, for the
// reason given.
func (r *runner) setAside(latMs []float64, format string, args ...any) {
	r.lateRounds++
	r.asideMs = append(r.asideMs, latMs...)
	r.note("round set aside: "+format, args...)
}

// rounds runs body at least min times and then for as long as one more round,
// taken to be as long as the longest so far, and the guard steps still
// pending end within budget: rounds are fixed in work, so a section stops
// short of its budget and not past it. Each round starts from a collected
// heap, so no round pays for the garbage of the one before it; after each,
// the guard steps that have fallen due are taken.
func (r *runner) rounds(min int, budget time.Duration, body func(i int) error) error {
	start := time.Now()
	total := len(r.pending)
	var longest time.Duration
	for i := 0; i < min || time.Since(start)+longest+r.guardReserve() <= budget; i++ {
		began := time.Now()
		runtime.GC()
		if err := body(i); err != nil {
			return err
		}
		longest = max(longest, time.Since(began))
		// Step k of n is due when k/(n+1) of the budget has passed.
		for taken := total - len(r.pending); taken < total && time.Since(start)*time.Duration(total+1) >= budget*time.Duration(taken+1); taken++ {
			if err := r.guardStep(); err != nil {
				return err
			}
		}
	}
	return nil
}

// guardStep takes the next pending step of the guard sections, from a
// collected heap like a round.
func (r *runner) guardStep() error {
	step := r.pending[0]
	r.pending = r.pending[1:]
	began := time.Now()
	runtime.GC()
	r.inGuard = true
	err := step()
	r.inGuard = false
	r.guardSteps++
	r.guardSpent += time.Since(began)
	return err
}

// guardReserve is how long the pending guard steps will take, going by the
// ones taken so far (a quarter of a second each before there are any).
func (r *runner) guardReserve() time.Duration {
	each := 250 * time.Millisecond
	if r.guardSteps > 0 {
		each = r.guardSpent / time.Duration(r.guardSteps)
	}
	return each * time.Duration(len(r.pending))
}

// run measures the workload. The sections that are not its subject are
// guards: they run at small fixed sizes, their steps spread between the
// rounds of the home section, which gets the budget. A traced run first takes
// the probes that call one layer alone.
func (r *runner) run() error {
	if r.traced {
		instrument.Enable()
		instrument.Reset()
	}
	start := time.Now()
	var failover, solve []func() error
	if r.sp.home != homeFailover {
		failover = r.failoverGuard()
	}
	if r.sp.home != homeSolve {
		solve = r.solveGuard()
	}
	// Alternate the two guards' steps, so that each is spread over the run.
	for len(failover) > 0 || len(solve) > 0 {
		if len(failover) > 0 {
			r.pending, failover = append(r.pending, failover[0]), failover[1:]
		}
		if len(solve) > 0 {
			r.pending, solve = append(r.pending, solve[0]), solve[1:]
		}
	}
	if r.traced {
		if err := r.layerProbes(); err != nil {
			return err
		}
	}
	left := time.Duration(r.seconds*float64(time.Second)) - time.Since(start)
	var err error
	switch r.sp.home {
	case homeServe:
		err = r.serveSection(left)
	case homeFailover:
		err = r.failoverSection(left)
	case homeSolve:
		err = r.solveSection(left)
	}
	for err == nil && len(r.pending) > 0 {
		err = r.guardStep()
	}
	return err
}

func (r *runner) serveSection(budget time.Duration) error {
	switch r.sp.serve {
	case serveWireClosed, serveWireOpen:
		return r.wireSection(budget)
	case serveInproc:
		return r.inprocSection(budget)
	}
	return nil
}

// walBytes sums what a journal directory holds: segment and snapshot bytes,
// and how many of each.
func walBytes(dir string) (bytes int64, segments, snapshots int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("list journal: %w", err)
	}
	for _, e := range entries {
		seg := strings.HasSuffix(e.Name(), ".seg")
		snap := strings.HasSuffix(e.Name(), ".snap")
		if !seg && !snap {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("list journal: %w", err)
		}
		bytes += info.Size()
		if seg {
			segments++
		} else {
			snapshots++
		}
	}
	return bytes, segments, snapshots, nil
}

// copyDir copies the regular files of src into a new directory dst: the
// "disk a restarted daemon finds", without touching the original.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return fmt.Errorf("copy journal: %w", err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return fmt.Errorf("copy journal: %w", err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return fmt.Errorf("copy journal: %w", err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return fmt.Errorf("copy journal: %w", err)
		}
	}
	return nil
}

// drainTorn stops a server whose journal tail was torn on purpose: the
// final snapshot Drain attempts is refused by the poisoned journal, which is
// the expected end of a killed daemon and not a failure.
func drainTorn(s *server.Server) error {
	if err := s.Drain(); err != nil && !errors.Is(err, journal.ErrTornTail) {
		return err
	}
	return nil
}

// sameDecisions compares the decisions a server made with a reference replay
// of the same arrivals, and names the first that differs.
func sameDecisions(got, want []online.Decision) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d decisions, reference replay has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Query != w.Query || g.Admitted != w.Admitted || len(g.Assignments) != len(w.Assignments) {
			return fmt.Errorf("decision %d: got %+v, reference %+v", i, g, w)
		}
		for j := range g.Assignments {
			if g.Assignments[j] != w.Assignments[j] {
				return fmt.Errorf("decision %d assignment %d: got %+v, reference %+v", i, j, g.Assignments[j], w.Assignments[j])
			}
		}
	}
	return nil
}

// stageMetrics names the per-layer metrics of each server stage: its mean
// and, where the table in README.md has one, its p95.
var stageMetrics = [instrument.NumStages]struct{ mean, p95 string }{
	instrument.StageQueue:    {"server.stage_queue_mean_us", "server.stage_queue_p95_us"},
	instrument.StageCoalesce: {"server.stage_coalesce_mean_us", "server.stage_coalesce_p95_us"},
	instrument.StageLookup:   {"online.stage_lookup_mean_us", ""},
	instrument.StagePricing:  {"online.stage_pricing_mean_us", "online.stage_pricing_p95_us"},
	instrument.StageJournal:  {"journal.stage_write_mean_us", ""},
	instrument.StageFsync:    {"journal.stage_fsync_mean_us", "journal.stage_fsync_p95_us"},
	instrument.StageAck:      {"server.stage_ack_mean_us", "server.stage_ack_p95_us"},
}

// stageReading records one round's mean and p95 of a stage, in microseconds.
func (r *runner) stageReading(st instrument.Stage, meanUs, p95Us float64) {
	r.s.add(stageMetrics[st].mean, meanUs)
	if name := stageMetrics[st].p95; name != "" {
		r.s.add(name, p95Us)
	}
}

// stageReadings turns one round's per-decision stage timelines into stage
// readings.
func (r *runner) stageReadings(stages [][]int64) {
	if len(stages) == 0 {
		return
	}
	col := make([]float64, len(stages))
	for st := instrument.Stage(0); st < instrument.NumStages; st++ {
		for i, tl := range stages {
			col[i] = float64(tl[st]) / 1e3
		}
		r.stageReading(st, mean(col), quantile(sorted(col), 0.95))
	}
}
