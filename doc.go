// Package edgerep reproduces "QoS-Aware Proactive Data Replication for Big
// Data Analytics in Edge Clouds" (Xia, Bai, Liang, Xu, Yao, Wang — ICPP 2019
// Workshops, DOI 10.1145/3339186.3339207) as a complete Go system.
//
// The repository contains the paper's primary contribution — the primal-dual
// proactive data replication and placement algorithms Appro-S and Appro-G
// (internal/core) — together with every substrate the evaluation depends on:
// a GT-ITM-style two-tier edge-cloud topology generator with flat and
// transit-stub models (internal/topology), workload, trace and arrival
// generators (internal/workload), the three benchmark algorithms
// (internal/baselines, internal/partition), an exact ILP solver with dual
// extraction built on a from-scratch simplex (internal/lp, internal/ilp), a
// discrete-event execution simulator (internal/sim), the threshold-based
// replica-consistency manager (internal/consistency), an emulated
// geo-distributed testbed over real TCP sockets (internal/testbed,
// internal/analytics), explicit shortest-path routing with per-link load
// accounting (internal/routing, internal/graph), the online and reactive
// counterpoints to the paper's proactive offline setting (internal/online,
// internal/reactive, internal/forecast), drivers that regenerate every
// figure of the paper plus the ablations (internal/experiments), and the
// runtime instrumentation behind the repository's performance trajectory
// (internal/instrument; enable with -stats on any cmd/ binary), and the
// always-on streaming-admission daemon serving all of it over HTTP with
// journaled exactly-once decisions (internal/server, cmd/edgerepd; see
// OPERATIONS.md for the runbook).
//
// Root-level benchmarks (bench_test.go) regenerate each figure and the
// ablations; the benchmark of record is bench/ (bash bench/run.sh, see
// bench/README.md). See DESIGN.md for the experiment index, EXPERIMENTS.md
// for measured-vs-paper results, and ARCHITECTURE.md for the package-to-paper
// map and hot-path guide.
package edgerep
