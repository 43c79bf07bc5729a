package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/invariant"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/server"
)

// wireExpected is edgerepd's price-base default when it serves HTTP.
const wireExpected = 1_000_000

// connections is the client cap: at most one client goroutine and socket per
// processor, and never more than two.
func connections() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// wireDaemon is what `edgerepd -http -journal` runs, built from the same
// constructors in the same order.
type wireDaemon struct {
	p        *placement.Problem
	jn       *journal.Journal
	srv      *server.Server
	dir      string
	url      string
	shutdown func() error
	conns    []*conn
}

// startWire brings one daemon up — instance, journal (journal.Options{} is
// edgerepd's: fsync per record), engine with its fast-path tables, server,
// listener, warm client connections — and returns how long that took.
func (r *runner) startWire(parent mark, id int64, dir string, opt journal.Options) (*wireDaemon, time.Duration, error) {
	d := &wireDaemon{dir: filepath.Join(dir, "wal")}
	setup := r.tr.begin("bench.setup", parent, id)
	m := r.tr.begin("server.BuildInstance", setup, id)
	p, err := server.BuildInstance(r.sp.inst)
	r.tr.end(m)
	if err != nil {
		return nil, 0, err
	}
	d.p = p
	m = r.tr.begin("journal.Open", setup, id)
	d.jn, err = journal.Open(d.dir, opt)
	r.tr.end(m)
	if err != nil {
		return nil, 0, err
	}
	m = r.tr.begin("online.NewEngine", setup, id)
	eng := online.NewEngine(p, wireExpected, online.Options{Journal: d.jn, SnapshotEvery: r.sp.snapEvery})
	r.tr.end(m)
	m = r.tr.begin("server.New+Serve", setup, id)
	d.srv = server.New(p, eng, server.Config{Clock: zeroClock})
	addr, shutdown, err := server.Serve("127.0.0.1:0", d.srv.Handler(nil))
	r.tr.end(m)
	if err != nil {
		return nil, 0, err
	}
	d.shutdown = shutdown
	d.url = "http://" + addr
	for i := 0; i < connections(); i++ {
		c := newConn(d.url)
		d.conns = append(d.conns, c)
		if err := c.warm(); err != nil {
			return nil, 0, err
		}
	}
	return d, r.tr.end(setup), nil
}

// stop closes the client side and the listener. server.Serve turns metric
// collection on for the process; an end-to-end run turns it back off, so the
// next workload of a `-workload all` run is measured as the library defaults
// it, like a run of its own.
func (d *wireDaemon) stop(traced bool) error {
	for _, c := range d.conns {
		c.close()
	}
	if !traced {
		instrument.Disable()
	}
	return d.shutdown()
}

// setupSamples is how often a serve section brings a daemon up only to time
// it, before every round: set-up there is 1-3 ms (on the wire with two
// directory fsyncs in it), the rounds' own few readings do not give a steady
// median of it, and readings taken all at once share one slow second.
const setupSamples = 4

// wireSection serves over loopback HTTP with a durable journal, in rounds of
// one daemon lifetime each: a closed loop of full-epoch POSTs, or an open loop
// of single-offer POSTs.
func (r *runner) wireSection(budget time.Duration) error {
	if r.traced {
		instrument.EnableAttribution()
		defer instrument.DisableAttribution()
	}
	round := r.closedRound
	if r.sp.serve == serveWireOpen {
		round = r.openRound
	}
	err := r.rounds(r.sp.minRounds, budget, func(i int) error {
		r.probeCPU()
		for k := 0; k < setupSamples; k++ {
			if err := r.setupOnly(); err != nil {
				return err
			}
		}
		return round(i)
	})
	if err != nil {
		return err
	}
	r.poolLatency()
	return nil
}

// setupOnly brings a daemon up, records how long that took, and takes it
// down again.
func (r *runner) setupOnly() (err error) {
	dir, done := r.roundDir("setup")
	defer done(&err)
	d, setup, err := r.startWire(mark{}, 0, dir, journal.Options{})
	if err != nil {
		return err
	}
	r.s.add("setup_s", setup.Seconds())
	if err := d.stop(r.traced); err != nil {
		return err
	}
	if err := d.srv.Drain(); err != nil {
		return err
	}
	return d.jn.Close()
}

// poolLatency reads the wire section's latency percentiles off the pooled
// per-POST readings of all its rounds.
func (r *runner) poolLatency() {
	if len(r.postMs) == 0 && len(r.asideMs) > 0 {
		// The generator kept time in no round: report what it measured.
		r.note("no round's generator kept time: latency is read off the rounds set aside")
		r.postMs = r.asideMs
	}
	r.s.add("bench.late_rounds", float64(r.lateRounds))
	lat := sorted(r.postMs)
	r.s.add("latency_p50_ms", quantile(lat, 0.50))
	r.s.add("bench.latency_p95_ms", quantile(lat, 0.95))
	r.s.add("bench.latency_p99_ms", quantile(lat, 0.99))
	if len(r.rawPostMs) > 0 {
		r.s.add("bench.raw_latency_p50_ms", quantile(sorted(r.rawPostMs), 0.50))
	}
}

// refAppendSyncUs is the disk the closed loop's throughput and latency are
// quoted for: one on which a single-record Journal.Append with its fsync takes
// 100 us. The sandbox's disk has regimes, each lasting many minutes, in which
// that append takes anything from 100 to 170 us, and the closed loop as it
// stands is 85% fsync: the same code read 5200 or 8600 decisions/s depending
// on the hour (CALIBRATION.md). So every closed round
//
//   - serves its traffic twice, on a journal that skips the per-record fsync
//     and on the durable one: the difference in time per decision is what the
//     disk cost, however many fsyncs the daemon spent it on;
//   - times the single-record append on a scratch journal before, between and
//     after the stretches of the durable pass: how slow the disk was then;
//   - reports the time without the disk plus the disk's cost scaled by
//     refAppendSyncUs over that append time.
//
// Nothing is assumed about the disk's share: when a change takes fsyncs off
// the critical path the correction shrinks with them. The readings as
// measured are printed beside the quoted ones (bench.raw_decisions_per_s,
// bench.raw_latency_p50_ms, bench.nosync_decisions_per_s,
// journal.append_sync_us).
const refAppendSyncUs = 100

// wireRound is what the client side of one daemon lifetime saw.
type wireRound struct {
	wall      time.Duration // of the timed part: the stretches' sum
	stretches []stretch
	mu        sync.Mutex
	acked     int
	admitted  int
	// per POST, in completion order: the client's span (send to reply
	// decoded) and the server's own stage sum for it
	spanMs   []float64
	stageMs  []float64
	encodeUs []float64
	decodeUs []float64
	stages   [][]int64
}

func (w *wireRound) record(n int, p posted) {
	w.mu.Lock()
	w.acked += n
	w.admitted += p.admitted
	w.spanMs = append(w.spanMs, (p.trip+p.decode).Seconds()*1e3)
	w.encodeUs = append(w.encodeUs, p.encode.Seconds()*1e6)
	w.decodeUs = append(w.decodeUs, p.decode.Seconds()*1e6)
	if p.stageSum > 0 {
		w.stageMs = append(w.stageMs, p.stageSum.Seconds()*1e3)
		w.stages = append(w.stages, p.stages...)
	}
	w.mu.Unlock()
}

// closedRound is one round of the closed loop: the same traffic served by
// two daemons, first without and then with the per-record fsync, and the
// durable one's figures quoted for the reference disk (refAppendSyncUs),
// stretch by stretch.
func (r *runner) closedRound(int) error {
	cpu, err := r.closedPass(journal.Options{NoSync: true})
	if err != nil {
		return err
	}
	runtime.GC()
	durable, err := r.closedPass(journal.Options{})
	if err != nil {
		return err
	}
	if cpu.acked == 0 || durable.acked == 0 {
		return nil // every POST failed and was charged; there is no rate
	}
	perCPU := cpu.wall.Seconds() / float64(cpu.acked)
	r.s.add("bench.nosync_decisions_per_s", 1/perCPU)
	r.s.add("bench.raw_decisions_per_s", float64(durable.acked)/durable.wall.Seconds())
	// Closed loop: latency runs from the send to the reply decoded, which is
	// the POST's span; with a fixed number of connections it moves in step
	// with the time per decision, and is quoted the same way.
	r.rawPostMs = append(r.rawPostMs, durable.spanMs...)
	for _, st := range durable.stretches {
		if st.acked == 0 {
			continue
		}
		perDurable := st.wall.Seconds() / float64(st.acked)
		quoted := perCPU + max(0, perDurable-perCPU)*refAppendSyncUs/st.diskUs
		r.s.add("journal.append_sync_us", st.diskUs)
		r.s.add("decisions_per_s", 1/quoted)
		for _, ms := range durable.spanMs[st.firstSpan:st.endSpan] {
			r.postMs = append(r.postMs, ms*quoted/perDurable)
		}
	}
	return nil
}

// stretch is one uninterrupted run of POSTs within a pass.
type stretch struct {
	wall  time.Duration
	acked int
	// firstSpan and endSpan delimit the stretch's POSTs in wireRound.spanMs.
	firstSpan, endSpan int
	// diskUs is what a single-record append with its fsync took right before
	// and right after the stretch (durable pass only).
	diskUs float64
}

// closedPass is one daemon lifetime of the closed loop: a fixed number of
// POSTs, each a full epoch of offers, over the client's connections, in a few
// stretches. The disk's latency wanders by a fifth from one second to the
// next, so the durable pass stops between stretches to time the append probe:
// every stretch of about a third of a second has a reading of the disk on
// either side of it. Only the durable pass (the daemon as edgerepd runs it)
// feeds the metrics.
func (r *runner) closedPass(opt journal.Options) (w *wireRound, err error) {
	durable := !opt.NoSync
	id := r.nextReq()
	dir, done := r.roundDir("wire")
	defer done(&err)
	root := r.tr.begin("bench.wire_round", mark{}, id)
	d, setup, err := r.startWire(root, id, dir, opt)
	if err != nil {
		return nil, err
	}
	if err := r.warm(d.srv, r.sp.holdSec); err != nil {
		return nil, err
	}
	offers := r.sp.serveOffers
	arrivals := server.Arrivals(len(d.p.Queries), r.driveConfig(offers, r.sp.holdSec))
	posts := (offers + r.sp.batch - 1) / r.sp.batch
	w = &wireRound{}
	probe := func() (float64, error) {
		if !durable {
			return 0, nil
		}
		return r.appendProbe(opt, r.sp.probeAppends)
	}
	before, err := probe()
	if err != nil {
		return nil, err
	}
	n := min(r.sp.stretches, posts)
	for s := 0; s < n; s++ {
		first, end := s*posts/n, (s+1)*posts/n
		st := stretch{firstSpan: len(w.spanMs), acked: -w.acked}
		timed := r.tr.begin("bench.timed", root, id)
		closedLoop(end-first, len(d.conns), func(c, i int) {
			i += first
			lo, hi := i*r.sp.batch, min((i+1)*r.sp.batch, offers)
			pid := postID(id, i)
			pm := r.tr.begin("bench.post", timed, pid)
			p, err := d.conns[c].post(r, pm, pid, arrivals[lo:hi])
			r.tr.end(pm)
			if err != nil {
				r.fail(hi-lo, "POST %d: %v", i, err)
				return
			}
			w.record(hi-lo, p)
		})
		st.wall = r.tr.end(timed)
		after, err := probe()
		if err != nil {
			return nil, err
		}
		st.acked, st.endSpan, st.diskUs = st.acked+w.acked, len(w.spanMs), (before+after)/2
		before = after
		w.wall += st.wall
		w.stretches = append(w.stretches, st)
	}
	r.count(offers)
	if durable {
		r.s.add("setup_s", setup.Seconds())
	}
	err = r.finishWire(d, w, w.spanMs, root, id, durable)
	r.tr.end(root)
	return w, err
}

// postID gives every POST of a round its own span request id.
func postID(round int64, i int) int64 { return round<<32 | int64(i+1) }

// openRound is one daemon lifetime of the open loop: single-offer POSTs
// falling due on a seeded exponential schedule.
func (r *runner) openRound(int) (err error) {
	id := r.nextReq()
	dir, done := r.roundDir("wire")
	defer done(&err)
	root := r.tr.begin("bench.wire_round", mark{}, id)
	d, setup, err := r.startWire(root, id, dir, journal.Options{})
	if err != nil {
		return err
	}
	r.s.add("setup_s", setup.Seconds())
	if err := r.warm(d.srv, r.sp.holdSec); err != nil {
		return err
	}
	offers := r.sp.serveOffers
	arrivals := server.Arrivals(len(d.p.Queries), r.driveConfig(offers, r.sp.holdSec))
	due := schedule(offers, r.sp.rate, r.seed)
	var w wireRound
	timed := r.tr.begin("bench.timed", root, id)
	latency, lag, sent := openLoop(due, len(d.conns), func(c, i int) {
		pid := postID(id, i)
		pm := r.tr.begin("bench.post", timed, pid)
		p, err := d.conns[c].post(r, pm, pid, arrivals[i:i+1])
		r.tr.end(pm)
		if err != nil {
			r.fail(1, "POST %d: %v", i, err)
			return
		}
		w.record(1, p)
	})
	wall := r.tr.end(timed)
	r.count(offers)
	// Open loop: latency runs from when the request fell due.
	latMs := make([]float64, len(latency))
	lagMs := make([]float64, len(lag))
	for i := range latency {
		latMs[i] = latency[i].Seconds() * 1e3
		lagMs[i] = lag[i].Seconds() * 1e3
	}
	// The rate the generator achieved is over the time it took to send the
	// schedule; the daemon's is over the time to the last reply.
	achieved := float64(offers) / sent.Seconds()
	lagP95 := quantile(sorted(lagMs), 0.95)
	r.s.add("decisions_per_s", float64(w.acked)/wall.Seconds())
	r.s.add("bench.achieved_rate", achieved)
	r.s.add("bench.sched_lag_p95_ms", lagP95)
	// A generator that ran late or slow measured itself, not the daemon: the
	// round's latencies are set aside, with the reason, and not pooled. The
	// daemon's answers are verified all the same, and the run stays correct:
	// the processor the host did not give the generator is not a wrong answer.
	// (Slow is under 99% of the scheduled rate; on a schedule so short that 1%
	// of it is less than the lag allowed, that lag.)
	scheduled := due[len(due)-1]
	switch {
	case lagP95 > 1:
		r.setAside(latMs, "generator late: p95 send lag %.3f ms > 1 ms", lagP95)
	case sent > scheduled+max(scheduled/100, 2*time.Millisecond):
		r.setAside(latMs, "generator slow: achieved %.1f offers/s of %.1f scheduled", achieved, r.sp.rate)
	default:
		r.postMs = append(r.postMs, latMs...)
	}
	err = r.finishWire(d, &w, latMs, root, id, true)
	r.tr.end(root)
	return err
}

// finishWire reads the round's on-disk and per-layer figures (if the daemon
// was one the metrics are about), verifies the journal it left behind against
// its live state, and tears it down.
func (r *runner) finishWire(d *wireDaemon, w *wireRound, latMs []float64, root mark, id int64, measured bool) error {
	live := d.srv.StateDump()
	epochs := d.srv.Epochs()
	bytes, segments, snapshots, err := walBytes(d.dir)
	if err != nil {
		return err
	}
	served := w.acked + r.sp.warmOffers
	if measured {
		r.s.add("wal_bytes_per_decision", float64(bytes)/float64(served))
	}
	if measured && r.traced && w.acked > 0 {
		r.s.add("journal.bytes_per_decision", float64(bytes)/float64(served))
		r.s.add("journal.segments", float64(segments))
		r.s.add("journal.snapshots", float64(snapshots))
		r.s.add("server.epochs", float64(epochs))
		r.s.add("server.mean_epoch_queries", float64(w.acked)/float64(epochs))
		r.s.add("online.admit_share", float64(w.admitted)/float64(w.acked))
		fp := d.srv.FastPathStats()
		r.s.add("online.fastpath_candidates", float64(fp.Candidates))
		r.s.add("online.fastpath_refreshes", float64(fp.Refreshes))
		r.s.add("bench.encode_us", mean(w.encodeUs))
		r.s.add("bench.decode_us", mean(w.decodeUs))
		r.stageReadings(w.stages)
		if len(w.stageMs) == len(w.spanMs) && len(latMs) > 0 {
			r.s.add("server.stage_sum_vs_e2e_p95",
				quantile(sorted(w.stageMs), 0.95)/quantile(sorted(latMs), 0.95))
			r.s.add("server.http_overhead_mean_us", (mean(w.spanMs)-mean(w.stageMs))*1e3)
		}
	}
	if err := d.stop(r.traced); err != nil {
		return err
	}

	// Verification: what is on disk, after a torn final write, must recover
	// to exactly the state the daemon was serving from. Two recoveries: the
	// way -resume does it (newest snapshot, then the suffix), which must
	// reproduce every decision; and a replay of every record from the first,
	// which must be field-identical to the live state. Only the second can
	// be held to invariant.CheckRecovered: an engine loaded from a snapshot
	// can differ from one that never stopped in the last bit of a node's
	// load (releases that tie on expiry pop in heap-layout order, and float
	// subtraction does not commute), see README.md.
	if got := len(live.Decisions); got != served {
		r.fail(w.acked, "daemon holds %d decisions, clients were acked %d", got, served)
	}
	if err := d.jn.TearTail([]byte("bench: garbage past the last acked record")); err != nil {
		return err
	}
	disk := d.dir + "-disk"
	if err := copyDir(d.dir, disk); err != nil {
		return err
	}
	m := r.tr.begin("journal.Load", root, id)
	st, err := journal.Load(disk)
	loadS := r.tr.end(m).Seconds()
	opt := online.Options{SnapshotEvery: r.sp.snapEvery}
	switch {
	case err != nil:
		r.fail(w.acked, "journal.Load after torn tail: %v", err)
	case !st.Torn:
		r.fail(w.acked, "journal.Load did not see the torn tail")
	default:
		m = r.tr.begin("online.Recover", root, id)
		resumed, err := online.Recover(d.p, wireExpected, opt, st)
		replay := r.tr.end(m)
		if err != nil {
			r.fail(w.acked, "online.Recover: %v", err)
		} else if err := sameDecisions(resumed.Result().Decisions, live.Decisions); err != nil {
			r.fail(w.acked, "resumed from snapshot: %v", err)
		}
		scratch, err := online.Recover(d.p, wireExpected, opt, &journal.State{Records: st.Records})
		if err != nil {
			r.fail(w.acked, "online.Recover from the first record: %v", err)
		} else if err := invariant.CheckRecovered(scratch.StateDump(), live); err != nil {
			r.fail(w.acked, "recovered state: %v", err)
		}
		if n := int64(len(st.Records)) - st.SnapshotLSN; measured && r.traced && n > 0 {
			r.s.add("journal.load_s", loadS)
			r.s.add("online.replay_us_per_record", replay.Seconds()*1e6/float64(n))
		}
	}
	if err := drainTorn(d.srv); err != nil {
		return err
	}
	if err := d.jn.Close(); err != nil {
		return err
	}
	return nil
}

// driveConfig is the seeded arrival stream of count offers at a mean hold.
func (r *runner) driveConfig(count int, holdSec float64) server.DriveConfig {
	return server.DriveConfig{Count: count, Seed: r.seed, Pipeline: 512, MeanHoldSec: holdSec}
}

// describeClient is the client-cap line of every report header.
func describeClient() string {
	return fmt.Sprintf("client cap: %d connection(s), GOMAXPROCS %d, nproc %d",
		connections(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}
