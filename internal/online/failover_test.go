package online_test

import (
	"math"
	"reflect"
	"testing"

	"edgerep/internal/consistency"
	"edgerep/internal/graph"
	"edgerep/internal/invariant"
	"edgerep/internal/online"
	"edgerep/internal/workload"
)

// runAll offers every query at 10s spacing with the given hold and returns
// the engine.
func runAll(t *testing.T, seed int64, nq int, holdSec float64) (*online.Engine, *workload.Workload) {
	t.Helper()
	p, w := online.NewTestProblem(t, seed, nq)
	e := online.NewEngine(p, len(w.Queries), online.Options{})
	for i := range w.Queries {
		if _, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i) * 10, HoldSec: holdSec}); err != nil {
			t.Fatal(err)
		}
	}
	return e, w
}

// busiestNode returns the node serving the most assignments in the solution.
func busiestNode(e *online.Engine) graph.NodeID {
	count := make(map[graph.NodeID]int)
	for _, a := range e.Solution().Assignments {
		count[a.Node]++
	}
	best, bestN := graph.NodeID(-1), 0
	for _, v := range e.TestProblem().Cloud.ComputeNodes() {
		if count[v] > bestN {
			best, bestN = v, count[v]
		}
	}
	return best
}

func admittedVolume(e *online.Engine) float64 {
	vol := 0.0
	for _, q := range e.Solution().Admitted() {
		vol += e.TestProblem().Queries[q].DemandedVolume(e.TestProblem().Datasets)
	}
	return vol
}

func TestCrashReleasesNodeState(t *testing.T) {
	e, _ := runAll(t, 11, 40, 0)
	v := busiestNode(e)
	if v == -1 {
		t.Fatal("no assignments")
	}
	usedBefore := e.TestUsedGHz(v)
	if usedBefore <= 0 {
		t.Fatalf("busiest node %d has no load", v)
	}
	rep, err := e.Crash(1e6, v)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Liveness().IsDown(v) {
		t.Fatal("node not marked down")
	}
	if e.TestUsedGHz(v) != 0 {
		t.Fatalf("crashed node still has %v GHz allocated", e.TestUsedGHz(v))
	}
	if rep.ReleasedGHz != usedBefore {
		t.Fatalf("released %v GHz, node held %v", rep.ReleasedGHz, usedBefore)
	}
	if rep.LostReplicas == 0 {
		t.Fatal("busiest node lost no replicas")
	}
	for n := range e.Solution().Replicas {
		if e.Solution().HasReplica(n, v) {
			t.Fatalf("dataset %d still has a replica on the crashed node", n)
		}
	}
	for _, a := range e.Solution().Assignments {
		if a.Node == v {
			t.Fatalf("assignment %+v still points at the crashed node", a)
		}
	}
	for _, n := range e.TestReleaseNodes() {
		if n == v {
			t.Fatalf("release still scheduled on the crashed node %d", n)
		}
	}
	// Crashing an already-down node is a no-op.
	rep2, err := e.Crash(1e6, v)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ReleasedGHz != 0 || rep2.LostReplicas != 0 || len(rep2.AffectedQueries) != 0 {
		t.Fatalf("second crash of the same node did work: %+v", rep2)
	}
}

func TestCrashRepairKeepsPaperInvariants(t *testing.T) {
	// Hold-forever run: the offline capacity model applies, so the
	// repaired solution must still satisfy every ILP constraint —
	// capacity (2), replica presence (3), deadline (4), K bound (5).
	e, _ := runAll(t, 12, 40, 0)
	v := busiestNode(e)
	rep, err := e.Crash(1e6, v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 && len(rep.Evicted) == 0 {
		t.Fatal("crash of the busiest node affected nothing")
	}
	if err := e.Solution().Validate(e.TestProblem()); err != nil {
		t.Fatalf("post-repair solution fails validation: %v", err)
	}
	if err := invariant.CheckSolution(e.TestProblem(), e.Solution(), e.Result().VolumeAdmitted); err != nil {
		t.Fatalf("post-repair solution violates paper invariants: %v", err)
	}
	if got, want := e.Result().VolumeAdmitted, admittedVolume(e); math.Abs(got-want) > 1e-6 {
		t.Fatalf("VolumeAdmitted %v but surviving admissions sum to %v", got, want)
	}
}

func TestCrashEvictsWhenNoSurvivorCanServe(t *testing.T) {
	e, _ := runAll(t, 13, 30, 0)
	if len(e.Solution().Admitted()) == 0 {
		t.Fatal("nothing admitted")
	}
	q := e.Solution().Admitted()[0]
	// Crash every node that could feasibly serve any of q's demands; the
	// final crash must evict it.
	feasible := make(map[graph.NodeID]bool)
	for _, dm := range e.TestProblem().Queries[q].Demands {
		for _, v := range e.TestProblem().FeasibleNodes(q, dm.Dataset) {
			feasible[v] = true
		}
	}
	at := 1e6
	for _, v := range e.TestProblem().Cloud.ComputeNodes() {
		if feasible[v] {
			if _, err := e.Crash(at, v); err != nil {
				t.Fatal(err)
			}
			at++
		}
	}
	if e.Solution().IsAdmitted(q) {
		t.Fatalf("query %d still admitted with every feasible node down", q)
	}
	if e.Result().Evicted == 0 {
		t.Fatal("no eviction recorded")
	}
	if got, want := e.Result().VolumeAdmitted, admittedVolume(e); math.Abs(got-want) > 1e-6 {
		t.Fatalf("VolumeAdmitted %v but surviving admissions sum to %v", got, want)
	}
}

func TestCrashedNodeNotUsedForNewArrivals(t *testing.T) {
	p, w := online.NewTestProblem(t, 14, 60)
	e := online.NewEngine(p, len(w.Queries), online.Options{})
	half := len(w.Queries) / 2
	for i := 0; i < half; i++ {
		if _, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	v := busiestNode(e)
	if _, err := e.Crash(float64(half)*10, v); err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(w.Queries); i++ {
		dec, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i) * 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range dec.Assignments {
			if a.Node == v {
				t.Fatalf("arrival %d assigned to crashed node %d", i, v)
			}
		}
	}
	// After restore the node is eligible again (it may or may not win).
	if err := e.Restore(v); err != nil {
		t.Fatal(err)
	}
	if e.Liveness().IsDown(v) {
		t.Fatal("restore left the node down")
	}
}

func TestCrashDeterministic(t *testing.T) {
	run := func() (online.CrashReport, online.Result) {
		e, _ := runAll(t, 15, 40, 0)
		rep, err := e.Crash(1e6, busiestNode(e))
		if err != nil {
			t.Fatal(err)
		}
		return rep, e.Result()
	}
	rep1, res1 := run()
	rep2, res2 := run()
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("crash reports differ:\n%+v\n%+v", rep1, rep2)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("results differ:\n%+v\n%+v", res1, res2)
	}
}

func TestRepairAccountsConsistencyResync(t *testing.T) {
	e, _ := runAll(t, 16, 40, 0)
	m, err := consistency.NewManager(e.TestProblem().Cloud.Topology(), e.TestProblem().Datasets, e.Solution(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e.AttachConsistency(m)
	// Crash nodes until a repair has to open a fresh replica.
	var rep online.CrashReport
	at := 1e6
	for _, v := range e.TestProblem().Cloud.ComputeNodes() {
		r, err := e.Crash(at, v)
		if err != nil {
			t.Fatal(err)
		}
		at++
		rep.NewReplicas += r.NewReplicas
		rep.ResyncGB += r.ResyncGB
		rep.ResyncCostGBSec += r.ResyncCostGBSec
		if rep.NewReplicas > 0 {
			break
		}
	}
	if rep.NewReplicas == 0 {
		t.Fatal("no repair opened a fresh replica; scenario too weak")
	}
	if rep.ResyncGB <= 0 {
		t.Fatalf("fresh replicas opened (%d) but no resync volume accounted", rep.NewReplicas)
	}
	if len(m.Events()) == 0 {
		t.Fatal("consistency manager recorded no resync events")
	}
}

func TestCrashActiveHoldsMoveCapacity(t *testing.T) {
	// Short holds, then crash while holds are live: the repaired
	// allocations must re-appear as load on surviving nodes and drain at
	// the original expiry.
	p, w := online.NewTestProblem(t, 17, 30)
	e := online.NewEngine(p, len(w.Queries), online.Options{})
	for i := range w.Queries {
		// All arrive close together with long holds so most are live.
		if _, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i), HoldSec: 1e5}); err != nil {
			t.Fatal(err)
		}
	}
	v := busiestNode(e)
	totalBefore := 0.0
	for _, u := range e.TestProblem().Cloud.ComputeNodes() {
		totalBefore += e.TestUsedGHz(u)
	}
	rep, err := e.Crash(float64(len(w.Queries)), v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReleasedGHz <= 0 {
		t.Fatal("no live allocation on the busiest node")
	}
	totalAfter := 0.0
	for _, u := range e.TestProblem().Cloud.ComputeNodes() {
		totalAfter += e.TestUsedGHz(u)
	}
	// Everything repaired moved its GHz to survivors; evicted queries gave
	// theirs back entirely.
	if totalAfter > totalBefore+1e-9 {
		t.Fatalf("total load grew across a crash: %v -> %v", totalBefore, totalAfter)
	}
	for _, n := range e.TestReleaseNodes() {
		if n == v {
			t.Fatalf("release still scheduled on crashed node %d", n)
		}
		if e.Liveness().IsDown(n) {
			t.Fatalf("release scheduled on a down node %d", n)
		}
	}
	// Capacity cap still respected everywhere.
	for _, u := range e.TestProblem().Cloud.ComputeNodes() {
		if e.TestUsedGHz(u) > e.TestProblem().Cloud.Capacity(u)+1e-9 {
			t.Fatalf("node %d over capacity after repair: %v > %v", u, e.TestUsedGHz(u), e.TestProblem().Cloud.Capacity(u))
		}
	}
}
