package main

import (
	"fmt"
	"math"

	"edgerep/internal/server"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// higherIsBetter marks the end-to-end metric that is a rate.
func higherIsBetter(metric string) bool { return metric == "decisions_per_s" }

// endToEnd are the metrics a user of edgerepd sees, measured with
// attribution, SLO tracker, flight recorder and trace sink all off. Every
// workload reports every one of them: the sections that are not a workload's
// subject run at a small fixed size on its own instance and traffic mix (see
// runner.run), so that a change cannot hide a cost in a stage some workload
// does not look at. Each is the better quartile of the run's readings
// (samples.better), quoted for the reference CPU where the work is CPU-bound
// (spec.cpuQuoted). BENCHMARK.json repeats this list with the bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"decisions_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"wal_bytes_per_decision", "B"},
	{"recover_s", "s"},
	{"solve_s", "s"},
}

// ungated are measured in every end-to-end run and printed under its report,
// but are per-layer metrics, not end-to-end ones: calibration found them too
// unsteady on this sandbox to hold a bound (CALIBRATION.md).
var ungated = []metricDef{
	{"bench.latency_p95_ms", "ms"},
	{"federation.promote_s", "s"},
	{"bench.raw_decisions_per_s", "1/s"},
	{"bench.raw_latency_p50_ms", "ms"},
	{"bench.nosync_decisions_per_s", "1/s"},
	{"journal.append_sync_us", "us"},
	{"bench.cpu_factor", "ratio"},
}

// perLayer are the traced run's readings of single layers. A reading a
// workload has no way to take is reported as 0.
var perLayer = []metricDef{
	{"journal.stage_fsync_mean_us", "us"},
	{"journal.stage_fsync_p95_us", "us"},
	{"journal.stage_write_mean_us", "us"},
	{"journal.append_sync_us", "us"},
	{"journal.append_nosync_ns", "ns"},
	{"journal.bytes_per_decision", "B"},
	{"journal.segments", "count"},
	{"journal.snapshots", "count"},
	{"journal.load_s", "s"},
	{"server.stage_queue_mean_us", "us"},
	{"server.stage_queue_p95_us", "us"},
	{"server.stage_coalesce_mean_us", "us"},
	{"server.stage_coalesce_p95_us", "us"},
	{"server.stage_ack_mean_us", "us"},
	{"server.stage_ack_p95_us", "us"},
	{"server.epochs", "count"},
	{"server.mean_epoch_queries", "count"},
	{"server.stage_sum_vs_e2e_p95", "ratio"},
	{"server.http_overhead_mean_us", "us"},
	{"server.allocs_per_decision", "count"},
	{"server.bytes_per_decision", "B"},
	{"server.instance_build_s.v100", "s"},
	{"server.instance_build_s.v1000", "s"},
	{"online.stage_lookup_mean_us", "us"},
	{"online.stage_pricing_mean_us", "us"},
	{"online.stage_pricing_p95_us", "us"},
	{"online.offer_admit_mean_ns", "ns"},
	{"online.offer_reject_mean_ns", "ns"},
	{"online.offer_admit_growth", "ratio"},
	{"online.admit_share", "ratio"},
	{"online.engine_build_s.v100", "s"},
	{"online.engine_build_s.v1000", "s"},
	{"online.fastpath_candidates", "count"},
	{"online.fastpath_refreshes", "count"},
	{"online.replay_us_per_record", "us"},
	{"placement.solution_admit_mean_ns", "ns"},
	{"graph.matrix_build_s.v100", "s"},
	{"graph.matrix_build_s.v1000", "s"},
	{"graph.dijkstra_calls", "count"},
	{"federation.promote_s", "s"},
	{"federation.promote_call_s", "s"},
	{"federation.promote_replay_records", "count"},
	{"federation.sync_once_mean_ms", "ms"},
	{"federation.steady_lag_records", "count"},
	{"federation.shipped_segments", "count"},
	{"core.approg_s", "s"},
	{"core.appros_s", "s"},
	{"core.ascent_rounds", "count"},
	{"core.bundles_priced", "count"},
	{"core.volume_gb", "GB"},
	{"core.volume_vs_greedy", "ratio"},
	{"baselines.greedy_s", "s"},
	{"instrument.attribution_overhead_ratio", "ratio"},
	{"instrument.attribution_ns_per_decision", "ns"},
	{"bench.sched_lag_p95_ms", "ms"},
	{"bench.achieved_rate", "1/s"},
	{"bench.late_rounds", "count"},
	{"bench.latency_p95_ms", "ms"},
	{"bench.latency_p99_ms", "ms"},
	{"bench.raw_decisions_per_s", "1/s"},
	{"bench.raw_latency_p50_ms", "ms"},
	{"bench.nosync_decisions_per_s", "1/s"},
	{"bench.cpu_factor", "ratio"},
	{"bench.encode_us", "us"},
	{"bench.decode_us", "us"},
}

type serveKind int

const (
	serveNone serveKind = iota
	serveWireClosed
	serveWireOpen
	serveInproc
)

type homeSection int

const (
	homeServe homeSection = iota
	homeFailover
	homeSolve
)

// spec is one workload: which section of a daemon's life the run's time
// budget goes to, and the sizes of all three.
type spec struct {
	name string
	// why records what the workload stresses and why it is in the set.
	why  string
	home homeSection
	// minRounds is how many times the home section runs (and sets up) at
	// least; it then repeats until the budget is spent.
	minRounds int
	// warmOffers is the fixed-seed prefix every daemon serves before its
	// seeded traffic (see runner.warmConfig).
	warmOffers int

	// The serve section: its instance, and the arrival stream's mean model
	// hold time, which sets the admit/reject mix (long holds saturate
	// capacity, short ones free it).
	serve   serveKind
	inst    server.InstanceConfig
	holdSec float64
	// serveOffers is the offers of one serve round (one daemon lifetime).
	serveOffers int
	// batch is the offers per POST and snapEvery the daemon's snapshot
	// cadence (wire only); rate is the open loop's offers per second;
	// stretches is how many pieces a closed pass is served in, with the disk
	// probe between them (see refAppendSyncUs).
	batch     int
	snapEvery int
	rate      float64
	stretches int

	// The failover and solve sections run on the life instance in every
	// workload, at lifeHoldSec. failoverOffers is what the replicated
	// leader serves before it is killed, failoverSyncEvery how often its
	// standby pulls, in offers; failoverRounds is the least number of
	// rounds, recoveries how often a round recovers the dead leader's disk,
	// solves the least number of core.ApproG solves.
	life              server.InstanceConfig
	failoverOffers    int
	failoverSyncEvery int
	failoverSnapEvery int
	failoverRounds    int
	recoveries        int
	solves            int

	// probeAppends sizes the journal append probe; curve lists the network
	// sizes of the traced run's cold-path probe.
	probeAppends int
	curve        []int
}

// lifeHoldSec is the traffic mix of the failover section: a third admitted.
const lifeHoldSec = 0.5

// sizes is the header line that says how much work a round of each section
// is: run length is fixed by the benchmark, never by a flag.
func (sp spec) sizes() string {
	var serve string
	switch sp.serve {
	case serveWireClosed:
		serve = fmt.Sprintf("serve rounds of %d offers in POSTs of %d on %d nodes; ", sp.serveOffers, sp.batch, sp.inst.Nodes)
	case serveWireOpen:
		serve = fmt.Sprintf("serve rounds of %d offers at %g/s in POSTs of %d on %d nodes; ", sp.serveOffers, sp.rate, sp.batch, sp.inst.Nodes)
	case serveInproc:
		serve = fmt.Sprintf("serve rounds of %d offers on %d nodes; ", sp.serveOffers, sp.inst.Nodes)
	}
	return fmt.Sprintf("%sfailover rounds of %d offers with %d recoveries, solves of %d queries, on %d nodes; warm-up %d offers",
		serve, sp.failoverOffers, sp.recoveries, sp.life.Queries, sp.life.Nodes, sp.warmOffers)
}

func (sp spec) wire() bool { return sp.serve == serveWireClosed || sp.serve == serveWireOpen }

// specs returns the six workloads with every offer count multiplied by
// scale. Scale 1 fits a run of 20 s on the seed commit; the smoke test
// uses 0.01, where the life instance shrinks too.
func specs(scale float64) []spec {
	n := func(count int) int { return int(math.Max(1, math.Round(float64(count)*scale))) }
	small := server.DefaultInstance() // 30 nodes, 12 datasets, 60 queries
	life := server.InstanceConfig{Seed: 1, Nodes: 500, Datasets: 40, Queries: 400, F: 5, K: 3}
	curve := []int{100, 1000}
	smoke := scale < 0.1
	if smoke {
		life.Nodes = 100
		curve = []int{100}
	}
	reps := func(k int) int {
		if smoke {
			return 1
		}
		return k
	}
	// A workload runs the sections that are not its home as guards: one
	// failover round whose dead leader's disk is recovered five times, and
	// twelve solves, on the same instance as the workloads whose home they
	// are, their steps spread over the run. A guard cell is reported like any
	// other and the driver holds it to the same bound, so it wants readings
	// enough for a quartile: ten runs' figures from five solves each spread by
	// 10 %, from fifteen by 3 %. On the 30-node instance a recovery is 30 ms
	// and a solve half a millisecond, and readings that small moved by 40-50%
	// for a minute at a time with the sandbox's mood, where the 500-node ones
	// moved by 5-15% (CALIBRATION.md).
	fill := func(sp spec) spec {
		sp.life = life
		if sp.failoverOffers == 0 {
			sp.failoverOffers, sp.failoverSyncEvery, sp.failoverSnapEvery = n(5000), n(500), n(2000)
		}
		if sp.failoverRounds == 0 {
			sp.failoverRounds, sp.recoveries = 1, 5
		}
		if sp.solves == 0 {
			sp.solves = 12
		}
		sp.failoverRounds, sp.recoveries, sp.solves, sp.minRounds = reps(sp.failoverRounds), reps(sp.recoveries), reps(sp.solves), reps(3)
		sp.probeAppends = n(500)
		sp.warmOffers = n(500)
		return sp
	}
	return []spec{
		fill(spec{
			name: "wire-durable",
			why:  "the production path at saturation: full-epoch POSTs over 2 connections, closed loop, fsync per record; journal does most of the work; quoted for a disk whose append+fsync takes 100 us",
			home: homeServe, serve: serveWireClosed, inst: small, holdSec: 0.5,
			serveOffers: n(12800), batch: 256, snapEvery: n(10000), stretches: 5,
		}),
		fill(spec{
			name: "wire-trickle",
			why:  "one edge client at normal load: single-offer POSTs, open loop at 200/s; the 2 ms coalesce timer and HTTP/JSON dominate, journal and pricing are bypassed",
			home: homeServe, serve: serveWireOpen, inst: small, holdSec: 0.5,
			serveOffers: n(500), batch: 1, snapEvery: n(10000), rate: 200,
		}),
		fill(spec{
			name: "inproc-reject",
			why:  "server.Drive with no journal at 98% rejects: queue, coalesce, ack and per-decision allocation dominate; continuity with DaemonThroughput in BENCH_pr1-10",
			home: homeServe, serve: serveInproc, inst: small, holdSec: 30,
			serveOffers: n(200000),
		}),
		fill(spec{
			name: "inproc-admit",
			why:  "the same driver at a third admitted: the commit path (placement.Solution.Admit, release heap) dominates; a gain for rejects that costs admits shows here",
			home: homeServe, serve: serveInproc, inst: small, holdSec: 0.05,
			serveOffers: n(75000),
		}),
		fill(spec{
			name: "restart",
			why:  "what operators pay: cold recovery and warm-standby promotion at 500 nodes; graph and fast-path table build dominate recover_s, the standby skips both",
			home: homeFailover, serve: serveNone,
			failoverOffers: n(20000), failoverSyncEvery: n(2000), failoverSnapEvery: n(8000),
			failoverRounds: 3, recoveries: 3, curve: curve,
		}),
		fill(spec{
			name: "batch-solve",
			why:  "the paper's algorithm, otherwise unmeasured: core.ApproG on the 500-node instance; core does all the work, the daemon none",
			// With no serving traffic of its own, its serve metrics are the
			// failover leader's: three rounds of it, for a median.
			home: homeSolve, serve: serveNone,
			failoverRounds: 3, recoveries: 3, solves: 15,
		}),
	}
}
