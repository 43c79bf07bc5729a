package sim

import (
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

func TestNoFailuresMatchesPlainRun(t *testing.T) {
	p, sol := solvedInstance(t, 1)
	plain, err := Run(p, sol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	withF, err := RunWithFailures(p, sol, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(withF.Queries) != len(plain.Queries) {
		t.Fatalf("query counts differ: %d vs %d", len(withF.Queries), len(plain.Queries))
	}
	if withF.MeanLatencySec != plain.MeanLatencySec {
		t.Fatalf("mean latency differs without failures: %v vs %v",
			withF.MeanLatencySec, plain.MeanLatencySec)
	}
	if len(withF.FailedQueries) != 0 || withF.Aborted != 0 || withF.Reassigned != 0 {
		t.Fatalf("phantom failure effects: %+v", withF)
	}
}

func TestFailureValidation(t *testing.T) {
	p, sol := solvedInstance(t, 2)
	if _, err := RunWithFailures(p, sol, Config{}, []NodeFailure{{Node: 0, AtSec: -1}}); err == nil {
		t.Fatal("negative failure time accepted")
	}
	// A switch (non-compute) node must be rejected.
	var sw graph.NodeID = -1
	for _, n := range p.Cloud.Topology().Nodes {
		if n.CapacityGHz == 0 {
			sw = n.ID
			break
		}
	}
	if sw != -1 {
		if _, err := RunWithFailures(p, sol, Config{}, []NodeFailure{{Node: sw, AtSec: 1}}); err == nil {
			t.Fatal("failure of non-compute node accepted")
		}
	}
}

func TestMidFlightFailureRedispatchesOrFails(t *testing.T) {
	p, sol := solvedInstance(t, 3)
	// Find the node serving the most assignments and fail it mid-flight.
	counts := map[graph.NodeID]int{}
	for _, a := range sol.Assignments {
		counts[a.Node]++
	}
	var target graph.NodeID = -1
	best := 0
	for v, c := range counts {
		if c > best || (c == best && (target == -1 || v < target)) {
			target, best = v, c
		}
	}
	if target == -1 {
		t.Skip("no assignments")
	}
	rep, err := RunWithFailures(p, sol, Config{}, []NodeFailure{{Node: target, AtSec: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted == 0 {
		t.Fatalf("failing the busiest node (%d assignments) aborted nothing", best)
	}
	if rep.Aborted != rep.Reassigned+failedTaskCount(rep) {
		t.Logf("aborted %d, reassigned %d, failed queries %d — a query can lose several tasks",
			rep.Aborted, rep.Reassigned, len(rep.FailedQueries))
	}
	// Accounting must close: every admitted query either completed or
	// failed.
	if len(rep.Queries)+len(rep.FailedQueries) != len(sol.Admitted()) {
		t.Fatalf("%d completed + %d failed != %d admitted",
			len(rep.Queries), len(rep.FailedQueries), len(sol.Admitted()))
	}
}

func failedTaskCount(rep *FailureReport) int { return len(rep.FailedQueries) }

func TestFailureAtTimeZeroKillsSingleReplicaQueries(t *testing.T) {
	// K=1: every dataset has exactly one replica, so failing a node kills
	// every query assigned to it with no redispatch possible.
	p, sol := solvedInstanceK1(t, 5)
	counts := map[graph.NodeID]int{}
	for _, a := range sol.Assignments {
		counts[a.Node]++
	}
	var target graph.NodeID = -1
	for v, c := range counts {
		if c > 0 && (target == -1 || v < target) {
			target = v
		}
	}
	if target == -1 {
		t.Skip("no assignments")
	}
	rep, err := RunWithFailures(p, sol, Config{}, []NodeFailure{{Node: target, AtSec: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Redispatch requires another replica of the same dataset; with K=1
	// none exists, so every task on the failed node dooms its query.
	if rep.Reassigned != 0 {
		t.Fatalf("K=1 run reassigned %d tasks — no second replica should exist", rep.Reassigned)
	}
	if len(rep.FailedQueries) == 0 {
		t.Fatal("failing a loaded node under K=1 failed no queries")
	}
}

func TestDoubleFailureIdempotent(t *testing.T) {
	p, sol := solvedInstance(t, 6)
	var target graph.NodeID = -1
	for _, a := range sol.Assignments {
		target = a.Node
		break
	}
	if target == -1 {
		t.Skip("no assignments")
	}
	rep, err := RunWithFailures(p, sol, Config{},
		[]NodeFailure{{Node: target, AtSec: 0.1}, {Node: target, AtSec: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries)+len(rep.FailedQueries) != len(sol.Admitted()) {
		t.Fatal("double failure broke accounting")
	}
}

func TestFailureDeterministic(t *testing.T) {
	p, sol := solvedInstance(t, 7)
	var target graph.NodeID = -1
	counts := map[graph.NodeID]int{}
	for _, a := range sol.Assignments {
		counts[a.Node]++
		if counts[a.Node] > 1 {
			target = a.Node
		}
	}
	if target == -1 {
		t.Skip("no node with 2+ assignments")
	}
	r1, err := RunWithFailures(p, sol, Config{}, []NodeFailure{{Node: target, AtSec: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunWithFailures(p, sol, Config{}, []NodeFailure{{Node: target, AtSec: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MeanLatencySec != r2.MeanLatencySec || len(r1.FailedQueries) != len(r2.FailedQueries) ||
		r1.Reassigned != r2.Reassigned {
		t.Fatal("failure simulation nondeterministic")
	}
}

func TestLateFailureAfterCompletionIsHarmless(t *testing.T) {
	p, sol := solvedInstance(t, 8)
	base, err := Run(p, sol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunWithFailures(p, sol, Config{},
		[]NodeFailure{{Node: p.Cloud.ComputeNodes()[0], AtSec: base.MakespanSec + 100}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FailedQueries) != 0 || rep.Aborted != 0 {
		t.Fatalf("failure after makespan affected queries: %+v", rep)
	}
	if len(rep.Queries) != len(sol.Admitted()) {
		t.Fatal("late failure lost queries")
	}
}

func TestSimultaneousAllNodeCrashCountsExactlyOnce(t *testing.T) {
	// Every compute node crashes at the same instant shortly after all
	// tasks started. Redispatch targets picked by the first crash events
	// are themselves down before the retries arrive, so NO task may be
	// counted as reassigned — the old push-time counting tallied such
	// tasks as both reassigned and failed.
	p, sol := solvedInstance(t, 9)
	if len(sol.Admitted()) == 0 {
		t.Skip("nothing admitted")
	}
	var failures []NodeFailure
	for _, v := range p.Cloud.ComputeNodes() {
		failures = append(failures, NodeFailure{Node: v, AtSec: 1e-9})
	}
	rep, err := RunWithFailures(p, sol, Config{}, failures)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reassigned != 0 {
		t.Fatalf("%d tasks counted reassigned with every node down", rep.Reassigned)
	}
	if len(rep.Queries) != 0 {
		t.Fatalf("%d queries completed after a full-cluster crash at t≈0", len(rep.Queries))
	}
	if len(rep.FailedQueries) != len(sol.Admitted()) {
		t.Fatalf("%d failed != %d admitted", len(rep.FailedQueries), len(sol.Admitted()))
	}
	// All tasks arrived at t=0, so each was queued or running — aborted
	// exactly once each.
	if rep.Aborted != len(sol.Assignments) {
		t.Fatalf("aborted %d tasks, expected every one of the %d assignments",
			rep.Aborted, len(sol.Assignments))
	}
	seen := map[workload.QueryID]bool{}
	for _, q := range rep.FailedQueries {
		if seen[q] {
			t.Fatalf("query %d failed twice", q)
		}
		seen[q] = true
	}
}

func TestCrashAtTimeZeroBeforeAnyArrival(t *testing.T) {
	// AtSec == 0 crashes share the timestamp with every arrival; failure
	// events were pushed first, so the nodes are already down when tasks
	// arrive. Nothing ever starts: zero aborts, zero reassignments, every
	// query fails exactly once, and the run must not wedge or panic.
	p, sol := solvedInstance(t, 10)
	if len(sol.Admitted()) == 0 {
		t.Skip("nothing admitted")
	}
	var failures []NodeFailure
	for _, v := range p.Cloud.ComputeNodes() {
		failures = append(failures, NodeFailure{Node: v, AtSec: 0})
	}
	rep, err := RunWithFailures(p, sol, Config{}, failures)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted != 0 {
		t.Fatalf("aborted %d tasks that never started", rep.Aborted)
	}
	if rep.Reassigned != 0 {
		t.Fatalf("reassigned %d tasks with every node down from t=0", rep.Reassigned)
	}
	if len(rep.Queries) != 0 || len(rep.FailedQueries) != len(sol.Admitted()) {
		t.Fatalf("accounting: %d completed, %d failed, %d admitted",
			len(rep.Queries), len(rep.FailedQueries), len(sol.Admitted()))
	}
	seen := map[workload.QueryID]bool{}
	for _, q := range rep.FailedQueries {
		if seen[q] {
			t.Fatalf("query %d failed twice", q)
		}
		seen[q] = true
	}
}

func TestSimultaneousReplicaSetCrashDoesNotOvercountReassigned(t *testing.T) {
	// Crash exactly the replica set of one dataset at one instant:
	// every query demanding it fails, and none of its tasks may count as
	// reassigned even though a sibling replica looked alive when the
	// first crash event redispatched. Tasks of OTHER datasets aborted on
	// those same nodes may legitimately land elsewhere.
	p, sol := solvedInstance(t, 11)
	var ds workload.DatasetID = -1
	for n, replicas := range sol.Replicas {
		if len(replicas) >= 2 {
			ds = n
			break
		}
	}
	if ds == -1 {
		t.Skip("no dataset with 2+ replicas")
	}
	var failures []NodeFailure
	downSet := map[graph.NodeID]bool{}
	for _, v := range sol.Replicas[ds] {
		failures = append(failures, NodeFailure{Node: v, AtSec: 1e-9})
		downSet[v] = true
	}
	rep, err := RunWithFailures(p, sol, Config{}, failures)
	if err != nil {
		t.Fatal(err)
	}
	mustFail := map[workload.QueryID]bool{}
	for _, a := range sol.Assignments {
		if a.Dataset == ds && downSet[a.Node] {
			mustFail[a.Query] = true
		}
	}
	failed := map[workload.QueryID]bool{}
	for _, q := range rep.FailedQueries {
		if failed[q] {
			t.Fatalf("query %d failed twice", q)
		}
		failed[q] = true
	}
	for q := range mustFail {
		if !failed[q] {
			t.Fatalf("query %d demands dataset %d whose whole replica set crashed, yet did not fail", q, ds)
		}
	}
	if len(rep.Queries)+len(rep.FailedQueries) != len(sol.Admitted()) {
		t.Fatalf("accounting: %d completed + %d failed != %d admitted",
			len(rep.Queries), len(rep.FailedQueries), len(sol.Admitted()))
	}
}

// solvedInstanceK1 is solvedInstance with the replica bound forced to 1.
func solvedInstanceK1(t testing.TB, seed int64) (*placement.Problem, *placement.Solution) {
	t.Helper()
	tc := topology.DefaultConfig()
	tc.Seed = seed
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = 10
	wc.NumQueries = 40
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ApproG(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, res.Solution
}
