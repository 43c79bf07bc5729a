package main

import (
	"runtime"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/server"
)

// reference is a direct replay of a round's arrivals through a fresh engine
// with no server around it: the decisions every round must reproduce, and
// what each Engine.Offer cost by outcome.
type reference struct {
	decisions []online.Decision
	admitNs   []float64 // per admitted offer, in order
	rejectNs  []float64
}

// replay offers the warm-up and then the seeded arrivals to a fresh engine,
// stamping arrival times the way the server does (never before the engine's
// clock), and times the seeded ones.
func replay(p *placement.Problem, warm, arrivals []server.AdmitRequest, expected int) (*reference, error) {
	eng := online.NewEngine(p, expected, online.Options{})
	ref := &reference{}
	for i, a := range append(warm[:len(warm):len(warm)], arrivals...) {
		at := max(a.AtSec, eng.Now())
		t0 := time.Now()
		dec, err := eng.Offer(online.Arrival{Query: a.Query, AtSec: at, HoldSec: a.HoldSec})
		ns := float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, err
		}
		switch {
		case i < len(warm):
		case dec.Admitted:
			ref.admitNs = append(ref.admitNs, ns)
		default:
			ref.rejectNs = append(ref.rejectNs, ns)
		}
	}
	ref.decisions = eng.Result().Decisions
	return ref, nil
}

// inprocSection drives the server in process, with no journal, through
// server.Drive: rounds of one fresh engine and server each, every round the
// same arrivals, so one reference replay verifies them all. A traced run
// alternates attribution off and on, which is how the cost of attribution is
// read from the same process.
func (r *runner) inprocSection(budget time.Duration) error {
	start := time.Now()
	cfg := r.driveConfig(r.sp.serveOffers, r.sp.holdSec)
	p, err := server.BuildInstance(r.sp.inst)
	if err != nil {
		return err
	}
	m := r.tr.begin("online.replay", mark{}, 0)
	ref, err := replay(p, server.Arrivals(len(p.Queries), r.warmConfig(r.sp.holdSec)), server.Arrivals(len(p.Queries), cfg), cfg.Count)
	r.tr.end(m)
	if err != nil {
		return err
	}
	var plainDps, attrDps []float64
	err = r.rounds(r.sp.minRounds, budget-time.Since(start), func(i int) error {
		// Set-up here is a millisecond; the few rounds of an admit-heavy run
		// do not give a steady median of it, so it is also timed on its own.
		r.probeCPU()
		for k := 0; k < setupSamples; k++ {
			srv, setup, err := r.startInproc(mark{}, 0, cfg.Count)
			if err != nil {
				return err
			}
			r.s.add("setup_s", setup.Seconds())
			if err := srv.Drain(); err != nil {
				return err
			}
		}
		attributed := r.traced && i%2 == 1
		if attributed {
			instrument.EnableAttribution()
			defer instrument.DisableAttribution()
		}
		rep, err := r.inprocRound(cfg, ref, attributed)
		if err != nil {
			return err
		}
		if attributed {
			attrDps = append(attrDps, rep.DecisionsPerSec)
		} else {
			plainDps = append(plainDps, rep.DecisionsPerSec)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	if on, off := median(attrDps), median(plainDps); on > 0 && off > 0 {
		r.s.add("instrument.attribution_overhead_ratio", off/on)
		r.s.add("instrument.attribution_ns_per_decision", 1e9/on-1e9/off)
	}
	r.replayReadings(ref)
	return nil
}

// serving records what one in-process drive read.
func (r *runner) serving(rep server.DriveReport) {
	r.s.add("decisions_per_s", rep.DecisionsPerSec)
	r.s.add("latency_p50_ms", rep.P50.Seconds()*1e3)
	r.s.add("bench.latency_p95_ms", rep.P95.Seconds()*1e3)
}

// startInproc brings the in-process daemon up — instance, engine with its
// fast-path tables, server, no journal — and returns how long that took.
func (r *runner) startInproc(parent mark, id int64, expected int) (*server.Server, time.Duration, error) {
	setup := r.tr.begin("bench.setup", parent, id)
	m := r.tr.begin("server.BuildInstance", setup, id)
	p, err := server.BuildInstance(r.sp.inst)
	r.tr.end(m)
	if err != nil {
		return nil, 0, err
	}
	m = r.tr.begin("online.NewEngine", setup, id)
	eng := online.NewEngine(p, expected, online.Options{})
	r.tr.end(m)
	srv := server.New(p, eng, server.Config{Clock: zeroClock})
	return srv, r.tr.end(setup), nil
}

func (r *runner) inprocRound(cfg server.DriveConfig, ref *reference, attributed bool) (server.DriveReport, error) {
	id := r.nextReq()
	root := r.tr.begin("bench.inproc_round", mark{}, id)
	srv, setup, err := r.startInproc(root, id, cfg.Count)
	if err != nil {
		return server.DriveReport{}, err
	}
	if err := r.warm(srv, r.sp.holdSec); err != nil {
		return server.DriveReport{}, err
	}

	var before, after runtime.MemStats
	if r.traced {
		runtime.ReadMemStats(&before)
	}
	m := r.tr.begin("server.Drive", root, id)
	rep, err := server.Drive(srv, cfg)
	r.tr.end(m)
	if err != nil {
		return rep, err
	}
	if r.traced {
		runtime.ReadMemStats(&after)
	}
	if err := srv.Drain(); err != nil {
		return rep, err
	}
	r.tr.end(root)

	r.count(cfg.Count)
	if rep.Offers != cfg.Count {
		r.fail(cfg.Count-rep.Offers, "drive answered %d of %d offers", rep.Offers, cfg.Count)
	}
	if err := sameDecisions(srv.Result().Decisions, ref.decisions); err != nil {
		r.fail(cfg.Count, "server decisions differ from a direct engine replay: %v", err)
	}
	if attributed {
		// Attributed rounds feed the stage metrics only; the end-to-end
		// figures come from rounds measured as the library defaults them.
		for i, st := range rep.Stages {
			r.stageReading(instrument.Stage(i), st.Mean.Seconds()*1e6, st.P95.Seconds()*1e6)
		}
		if rep.P95 > 0 {
			r.s.add("server.stage_sum_vs_e2e_p95", rep.StageSumP95.Seconds()/rep.P95.Seconds())
		}
		return rep, nil
	}
	r.s.add("setup_s", setup.Seconds())
	r.serving(rep)
	if r.traced {
		r.s.add("bench.latency_p99_ms", rep.P99.Seconds()*1e3)
		r.s.add("server.epochs", float64(rep.Epochs))
		r.s.add("server.mean_epoch_queries", rep.MeanEpochQueries)
		r.s.add("server.allocs_per_decision", float64(after.Mallocs-before.Mallocs)/float64(cfg.Count))
		r.s.add("server.bytes_per_decision", float64(after.TotalAlloc-before.TotalAlloc)/float64(cfg.Count))
		fp := srv.FastPathStats()
		r.s.add("online.fastpath_candidates", float64(fp.Candidates))
		r.s.add("online.fastpath_refreshes", float64(fp.Refreshes))
	}
	return rep, nil
}

// replayReadings reports what the reference replay cost per Engine.Offer,
// split by outcome, and whether an admit costs more late in the run than
// early (growth > 1: cost rises with history). It then replays the admitted
// sequence into a bare placement.Solution, which isolates that layer's share.
func (r *runner) replayReadings(ref *reference) {
	total := len(ref.admitNs) + len(ref.rejectNs)
	if total == 0 {
		return
	}
	r.s.add("online.admit_share", float64(len(ref.admitNs))/float64(total))
	r.s.add("online.offer_reject_mean_ns", mean(ref.rejectNs))
	n := len(ref.admitNs)
	if n == 0 {
		return
	}
	r.s.add("online.offer_admit_mean_ns", mean(ref.admitNs))
	if tenth := n / 10; tenth > 0 {
		r.s.add("online.offer_admit_growth", mean(ref.admitNs[n-tenth:])/mean(ref.admitNs[:tenth]))
	}
	sol := placement.NewSolution()
	m := r.tr.begin("placement.Solution.Admit", mark{}, 0)
	for _, d := range ref.decisions[r.sp.warmOffers:] {
		if d.Admitted {
			sol.Admit(d.Query, d.Assignments)
		}
	}
	r.s.add("placement.solution_admit_mean_ns", float64(r.tr.end(m).Nanoseconds())/float64(n))
}
