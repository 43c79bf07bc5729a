package sim

import (
	"math"
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

func solvedInstance(t testing.TB, seed int64) (*placement.Problem, *placement.Solution) {
	t.Helper()
	tc := topology.DefaultConfig()
	tc.Seed = seed
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = 10
	wc.NumQueries = 40
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ApproG(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, res.Solution
}

func TestSimultaneousArrivalsMatchAnalyticDelays(t *testing.T) {
	p, sol := solvedInstance(t, 1)
	rep, err := Run(p, sol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries) != len(sol.Admitted()) {
		t.Fatalf("report covers %d of %d admitted queries", len(rep.Queries), len(sol.Admitted()))
	}
	// With capacity-feasible simultaneous arrivals there is no queueing:
	// every measured latency equals the analytic EvalDelay maximum.
	for _, m := range rep.Queries {
		want, err := PredictedLatency(p, sol, m.Query)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.LatencySec-want) > 1e-9 {
			t.Fatalf("query %d measured %.6fs, analytic %.6fs", m.Query, m.LatencySec, want)
		}
	}
}

func TestNoDeadlineViolationsOnFeasibleSolution(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		p, sol := solvedInstance(t, seed)
		rep, err := Run(p, sol, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.DeadlineViolations != 0 {
			t.Fatalf("seed %d: %d deadline violations on a validated solution",
				seed, rep.DeadlineViolations)
		}
	}
}

func TestReportAggregates(t *testing.T) {
	p, sol := solvedInstance(t, 2)
	rep, err := Run(p, sol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanLatencySec <= 0 || rep.MaxLatencySec < rep.MeanLatencySec {
		t.Fatalf("degenerate latency stats: mean %v max %v", rep.MeanLatencySec, rep.MaxLatencySec)
	}
	if rep.MakespanSec < rep.MaxLatencySec {
		t.Fatalf("makespan %v below max latency %v", rep.MakespanSec, rep.MaxLatencySec)
	}
	totalBusy := 0.0
	for _, b := range rep.BusyGHzSeconds {
		if b < 0 {
			t.Fatal("negative busy time")
		}
		totalBusy += b
	}
	if totalBusy <= 0 {
		t.Fatal("no busy time recorded")
	}
}

func TestPoissonArrivalsStillComplete(t *testing.T) {
	p, sol := solvedInstance(t, 3)
	rep, err := Run(p, sol, Config{ArrivalRate: 2.0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries) != len(sol.Admitted()) {
		t.Fatal("not all queries completed under Poisson arrivals")
	}
	// Arrivals must be strictly increasing in admitted order with rate>0.
	prev := -1.0
	arrivalByQuery := map[workload.QueryID]float64{}
	for _, m := range rep.Queries {
		arrivalByQuery[m.Query] = m.ArrivalSec
	}
	for _, q := range sol.Admitted() {
		a := arrivalByQuery[q]
		if a <= prev {
			t.Fatalf("arrivals not increasing: %v after %v", a, prev)
		}
		prev = a
	}
}

func TestPoissonDeterministicBySeed(t *testing.T) {
	p, sol := solvedInstance(t, 4)
	r1, err := Run(p, sol, Config{ArrivalRate: 1.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p, sol, Config{ArrivalRate: 1.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MeanLatencySec != r2.MeanLatencySec || r1.MakespanSec != r2.MakespanSec {
		t.Fatal("same seed produced different simulations")
	}
}

func TestNegativeArrivalRateRejected(t *testing.T) {
	p, sol := solvedInstance(t, 5)
	if _, err := Run(p, sol, Config{ArrivalRate: -1}); err == nil {
		t.Fatal("negative arrival rate accepted")
	}
}

// Hand-built overload: two queries whose combined need exceeds the node's
// capacity must serialize, and the second one's latency includes waiting.
func TestQueueingUnderOversubscription(t *testing.T) {
	tc := topology.DefaultConfig()
	tc.Seed = 11
	top := topology.MustGenerate(tc)
	var cloudlet graph.NodeID = -1
	for _, n := range top.Nodes {
		if n.Kind == topology.Cloudlet && n.CapacityGHz < 12 {
			cloudlet = n.ID
			break
		}
	}
	if cloudlet == -1 {
		t.Skip("no small cloudlet found")
	}
	cap := top.Node(cloudlet).CapacityGHz
	size := cap * 0.6 // two tasks of 0.6·cap each cannot run together (1 GHz/GB)
	w := &workload.Workload{
		Datasets: []workload.Dataset{{ID: 0, SizeGB: size, Origin: cloudlet}},
		Queries: []workload.Query{
			{ID: 0, Home: cloudlet, Demands: []workload.Demand{{Dataset: 0, Selectivity: 0.5}},
				ComputePerGB: 1, DeadlineSec: 1e9},
			{ID: 1, Home: cloudlet, Demands: []workload.Demand{{Dataset: 0, Selectivity: 0.5}},
				ComputePerGB: 1, DeadlineSec: 1e9},
		},
	}
	p, err := placement.NewProblem(cluster.New(top), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately oversubscribed (not validator-feasible): both queries
	// assigned to the same small cloudlet.
	sol := placement.NewSolution()
	sol.AddReplica(0, cloudlet)
	sol.Admit(0, []placement.Assignment{{Query: 0, Dataset: 0, Node: cloudlet}})
	sol.Admit(1, []placement.Assignment{{Query: 1, Dataset: 0, Node: cloudlet}})

	rep, err := Run(p, sol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	procSec := size * top.Node(cloudlet).ProcDelayPerGB
	lat := map[workload.QueryID]float64{}
	for _, m := range rep.Queries {
		lat[m.Query] = m.LatencySec
	}
	// First query runs immediately; second waits a full processing slot.
	if math.Abs(lat[0]-procSec) > 1e-9 {
		t.Fatalf("query 0 latency %v, want %v", lat[0], procSec)
	}
	if math.Abs(lat[1]-2*procSec) > 1e-9 {
		t.Fatalf("query 1 latency %v, want %v (queued)", lat[1], 2*procSec)
	}
}

// The simulator's busy-time accounting must equal Σ need·procSec.
func TestBusyTimeAccounting(t *testing.T) {
	p, sol := solvedInstance(t, 6)
	rep, err := Run(p, sol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[graph.NodeID]float64{}
	for _, a := range sol.Assignments {
		size := p.Datasets[a.Dataset].SizeGB
		want[a.Node] += p.ComputeNeed(a.Query, a.Dataset) * size * p.Cloud.ProcDelayPerGB(a.Node)
	}
	for v, b := range rep.BusyGHzSeconds {
		if math.Abs(b-want[v]) > 1e-6 {
			t.Fatalf("node %d busy %v, want %v", v, b, want[v])
		}
	}
}

func TestPredictedLatencyErrors(t *testing.T) {
	p, sol := solvedInstance(t, 7)
	if _, err := PredictedLatency(p, sol, workload.QueryID(len(p.Queries)+5)); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func BenchmarkSimulate(b *testing.B) {
	p, sol := solvedInstance(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, sol, Config{ArrivalRate: 5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLatencyPercentilesOrdered(t *testing.T) {
	p, sol := solvedInstance(t, 9)
	rep, err := Run(p, sol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.P50LatencySec <= 0 {
		t.Fatal("P50 not computed")
	}
	if rep.P50LatencySec > rep.P95LatencySec || rep.P95LatencySec > rep.P99LatencySec {
		t.Fatalf("percentiles out of order: P50=%v P95=%v P99=%v",
			rep.P50LatencySec, rep.P95LatencySec, rep.P99LatencySec)
	}
	if rep.P99LatencySec > rep.MaxLatencySec+1e-12 {
		t.Fatalf("P99 %v exceeds max %v", rep.P99LatencySec, rep.MaxLatencySec)
	}
}
