package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"edgerep/internal/federation"
	"edgerep/internal/invariant"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/server"
)

// failoverSection is the rest of a daemon's life: a replicated leader serves
// traffic, is killed mid-write, its warm standby is promoted, and a cold
// daemon recovers from the dead leader's disk. It is the home section of the
// restart workload.
func (r *runner) failoverSection(budget time.Duration) error {
	return r.rounds(r.sp.failoverRounds, budget, func(int) error {
		f, err := r.beginFailover()
		if err != nil {
			return err
		}
		for i := 0; i < r.sp.recoveries; i++ {
			if err := f.recover(); err != nil {
				return err
			}
		}
		return f.finish()
	})
}

// failoverGuard is the failover section of the other workloads, as steps to
// take between their own rounds: a few smaller rounds of it.
func (r *runner) failoverGuard() []func() error {
	var steps []func() error
	for k := 0; k < r.sp.failoverRounds; k++ {
		var f *failover
		steps = append(steps, func() (err error) {
			f, err = r.beginFailover()
			return err
		})
		for i := 0; i < r.sp.recoveries; i++ {
			steps = append(steps, func() error { return f.recover() })
		}
		steps = append(steps, func() error { return f.finish() })
	}
	return steps
}

// failover is what a failover round leaves behind once the leader is dead
// and its standby promoted, audited and stopped: two journal directories for
// the cold starts to recover from.
type failover struct {
	r   *runner
	id  int64
	opt online.Options
	// dir holds the round's journals; done removes it.
	dir, oldDir, newDir string
	done                func(*error)
	segmentBytes        int64

	// served is what the leader acked, next the offer after those, and
	// promotedAdmits how the promoted standby decided it.
	served         int
	next           server.AdmitRequest
	promotedAdmits bool

	// cold is the last cold start made from the dead leader's disk, and
	// colds how many there have been.
	cold  coldStart
	colds int
	// bytes, segments and snapshots are the dead leader's journal.
	bytes               int64
	segments, snapshots int
}

// beginFailover runs a replicated leader through its traffic, kills it,
// promotes its standby, audits the promotion and stops both: everything up to
// the cold starts. Nothing of the two daemons stays in memory, so that a guard
// round that waits between a workload's own rounds does not weigh on them.
func (r *runner) beginFailover() (f *failover, err error) {
	sp := r.sp
	n := sp.failoverOffers
	id := r.nextReq()
	root := r.tr.begin("bench.failover_round", mark{}, id)
	cfg := federation.Config{
		Region: "bench", Instance: sp.life, Shards: 1, ExpectedArrivals: n,
		SnapshotEvery: sp.failoverSnapEvery, SegmentBytes: 256 << 10, NoSync: true,
		DeterministicClock: true,
	}
	dir, done := r.roundDir("failover")
	defer func() {
		if err != nil {
			done(&err)
		}
	}()
	f = &failover{r: r, id: id, opt: online.Options{SnapshotEvery: sp.failoverSnapEvery},
		dir: dir, oldDir: filepath.Join(dir, "leader"), newDir: filepath.Join(dir, "promoted"), done: done,
		segmentBytes: cfg.SegmentBytes, served: n + sp.warmOffers}

	r.probeCPU()
	setup := r.tr.begin("bench.setup", root, id)
	m := r.tr.begin("federation.StartLeader", setup, id)
	leader, err := federation.StartLeader(cfg, f.oldDir, 1)
	r.tr.end(m)
	if err != nil {
		return nil, err
	}
	m = r.tr.begin("federation.NewStandby", setup, id)
	standby, err := federation.NewStandby(cfg, &federation.LeaderTransport{Leader: leader})
	r.tr.end(m)
	if err != nil {
		return nil, err
	}
	setupS := r.tr.end(setup).Seconds()
	if err := r.warm(leader.Server(), lifeHoldSec); err != nil {
		return nil, err
	}

	// The leader serves n offers through server.Drive in chunks, the standby
	// pulling sealed segments between chunks.
	var syncMs []float64
	for at := 0; at < n; at += sp.failoverSyncEvery {
		dc := r.driveConfig(min(at+sp.failoverSyncEvery, n), lifeHoldSec)
		dc.StartIndex = at
		m = r.tr.begin("server.Drive", root, id)
		rep, err := server.Drive(leader.Server(), dc)
		r.tr.end(m)
		if err != nil {
			return nil, err
		}
		if sp.serve == serveNone {
			// With no serve section of its own, the workload's serving
			// figures are those of the replicated leader before it died, a
			// reading a chunk.
			r.serving(rep)
		}
		m = r.tr.begin("federation.SyncOnce", root, id)
		err = standby.SyncOnce()
		syncMs = append(syncMs, r.tr.end(m).Seconds()*1e3)
		if err != nil {
			return nil, err
		}
	}
	r.count(n)
	if f.bytes, f.segments, f.snapshots, err = walBytes(f.oldDir); err != nil {
		return nil, err
	}
	lag, shipped, shippedLSN := standby.Lag(), standby.Status().SyncedSegs, standby.LSN()
	f.next = server.Arrivals(len(leader.Problem().Queries), server.DriveConfig{
		Count: n + 1, StartIndex: n, Seed: r.seed, MeanHoldSec: lifeHoldSec})[0]

	// Time without service: the leader dies, the standby finishes replay from
	// the dead leader's directory and answers its first offer.
	pm := r.tr.begin("bench.promote", root, id)
	if err := leader.Kill(); err != nil {
		return nil, err
	}
	m = r.tr.begin("federation.Promote", pm, id)
	promoted, err := standby.Promote(f.oldDir, f.newDir)
	promoteCall := r.tr.end(m)
	if err != nil {
		return nil, err
	}
	m = r.tr.begin("server.Admit", pm, id)
	first, err := promoted.Server().Admit(f.next)
	r.tr.end(m)
	if err != nil {
		return nil, err
	}
	f.promotedAdmits = first.Admitted
	promoteS := r.tr.end(pm).Seconds()
	r.tr.end(root)

	r.s.add("federation.promote_s", promoteS)
	if sp.home == homeFailover {
		r.s.add("setup_s", setupS)
	}
	if !sp.wire() {
		// A wire workload reports its own daemon's durable journal.
		r.s.add("wal_bytes_per_decision", float64(f.bytes)/float64(f.served))
	}
	if r.traced {
		r.s.add("federation.promote_call_s", promoteCall.Seconds())
		r.s.add("federation.promote_replay_records", float64(int64(f.served)-shippedLSN))
		r.s.add("federation.sync_once_mean_ms", mean(syncMs))
		r.s.add("federation.steady_lag_records", float64(lag))
		r.s.add("federation.shipped_segments", float64(shipped))
		if sp.serve == serveNone {
			fp := promoted.Server().FastPathStats()
			r.s.add("online.fastpath_candidates", float64(fp.Candidates))
			r.s.add("online.fastpath_refreshes", float64(fp.Refreshes))
		}
	}

	// Verification: the handoff snapshot equals a replay of the dead leader's
	// journal, and old and new journal together replay to the state the
	// promoted leader serves from.
	if err := invariant.CheckFailover(leader.Problem(), n, f.opt, f.oldDir, f.newDir, promoted.Server().StateDump()); err != nil {
		r.fail(n, "failover audit: %v", err)
	}
	if err := drainTorn(leader.Server()); err != nil {
		return nil, err
	}
	if err := leader.Journal().Close(); err != nil {
		return nil, err
	}
	if err := promoted.Drain(); err != nil {
		return nil, err
	}
	if err := promoted.Journal().Close(); err != nil {
		return nil, err
	}
	return f, nil
}

// recover makes one cold start from a fresh copy of the dead leader's disk:
// what `edgerepd -resume` pays.
func (f *failover) recover() error {
	r, n := f.r, f.r.sp.failoverOffers
	disk := filepath.Join(f.dir, fmt.Sprintf("disk-%d", f.colds))
	f.colds++
	if err := copyDir(f.oldDir, disk); err != nil {
		return err
	}
	r.probeCPU()
	cold, err := r.coldStart(f.id, disk, f.segmentBytes, f.opt, f.next)
	if err != nil {
		return err
	}
	// The copy goes at once, and its unsynced pages with it (see roundDir).
	if err := os.RemoveAll(disk); err != nil {
		return err
	}
	f.cold = cold
	r.s.add("recover_s", cold.total.Seconds())
	// Verification: no acked decision lost or applied twice across the cut,
	// and both successors decide the next offer the same way.
	if cold.decisions != f.served {
		r.fail(n, "recovered %d decisions, leader acked %d", cold.decisions, f.served)
	}
	if f.promotedAdmits != cold.admitted {
		r.fail(n, "promoted leader and recovered daemon disagree on offer %d", n)
	}
	return nil
}

// finish reads what the traced run wants of the round's cold starts and
// removes its directories.
func (f *failover) finish() (err error) {
	defer f.done(&err)
	r := f.r
	if r.traced && !r.sp.wire() {
		r.s.add("journal.bytes_per_decision", float64(f.bytes)/float64(f.served))
		r.s.add("journal.segments", float64(f.segments))
		r.s.add("journal.snapshots", float64(f.snapshots))
		r.s.add("journal.load_s", f.cold.load.Seconds())
		if f.cold.replayed > 0 {
			r.s.add("online.replay_us_per_record", f.cold.replay.Seconds()*1e6/float64(f.cold.replayed))
		}
	}
	return nil
}

// coldStart is what one cold recovery took and found.
type coldStart struct {
	total, load, replay time.Duration
	// replayed is the records past the snapshot, decisions what the engine
	// held after them, admitted how it decided the next offer.
	replayed  int64
	decisions int
	admitted  bool
}

// coldStart does what `edgerepd -resume` does on the journal directory disk
// — instance, journal.Load, journal.Open, online.Recover, server.New — and
// has the recovered daemon decide one more offer.
func (r *runner) coldStart(id int64, disk string, segmentBytes int64, opt online.Options, next server.AdmitRequest) (c coldStart, err error) {
	rm := r.tr.begin("bench.recover", mark{}, id)
	m := r.tr.begin("server.BuildInstance", rm, id)
	p, err := server.BuildInstance(r.sp.life)
	r.tr.end(m)
	if err != nil {
		return c, err
	}
	m = r.tr.begin("journal.Load", rm, id)
	st, err := journal.Load(disk)
	c.load = r.tr.end(m)
	if err != nil {
		return c, err
	}
	m = r.tr.begin("journal.Open", rm, id)
	jn, err := journal.Open(disk, journal.Options{SegmentBytes: segmentBytes, NoSync: true})
	r.tr.end(m)
	if err != nil {
		return c, err
	}
	opt.Journal = jn
	m = r.tr.begin("online.Recover", rm, id)
	eng, err := online.Recover(p, r.sp.failoverOffers, opt, st)
	c.replay = r.tr.end(m)
	if err != nil {
		return c, err
	}
	c.replayed = int64(len(st.Records)) - st.SnapshotLSN
	c.decisions = len(eng.Result().Decisions)
	srv := server.New(p, eng, server.Config{Clock: zeroClock})
	m = r.tr.begin("server.Admit", rm, id)
	again, err := srv.Admit(next)
	r.tr.end(m)
	if err != nil {
		return c, err
	}
	c.total = r.tr.end(rm)
	c.admitted = again.Admitted
	if err := srv.Drain(); err != nil {
		return c, err
	}
	return c, jn.Close()
}
