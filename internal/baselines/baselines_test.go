package baselines

import (
	"testing"
	"testing/quick"

	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/invariant"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

func problem(t testing.TB, seed int64, nq, nd, k, maxDemands int) *placement.Problem {
	t.Helper()
	tc := topology.DefaultConfig()
	tc.Seed = seed
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = nd
	wc.NumQueries = nq
	wc.MaxDatasetsPerQuery = maxDemands
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

type algo struct {
	name    string
	general func(*placement.Problem) (*placement.Solution, error)
	special func(*placement.Problem) (*placement.Solution, error)
}

var algos = []algo{
	{"Greedy", GreedyG, GreedyS},
	{"Graph", GraphG, GraphS},
	{"Popularity", PopularityG, PopularityS},
}

func TestAllBaselinesFeasibleGeneral(t *testing.T) {
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			p := problem(t, 3, 40, 12, 3, 7)
			sol, err := a.general(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := sol.Validate(p); err != nil {
				t.Fatalf("%s-G infeasible: %v", a.name, err)
			}
			if err := invariant.CheckSolution(p, sol, sol.Volume(p)); err != nil {
				t.Fatalf("%s-G violates paper invariants: %v", a.name, err)
			}
			if len(sol.Admitted()) == 0 {
				t.Fatalf("%s-G admitted nothing on routine instance", a.name)
			}
		})
	}
}

func TestAllBaselinesFeasibleSpecial(t *testing.T) {
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			p := problem(t, 5, 40, 12, 3, 1)
			sol, err := a.special(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := sol.Validate(p); err != nil {
				t.Fatalf("%s-S infeasible: %v", a.name, err)
			}
			if err := invariant.CheckSolution(p, sol, sol.Volume(p)); err != nil {
				t.Fatalf("%s-S violates paper invariants: %v", a.name, err)
			}
		})
	}
}

func TestSpecialVariantsRejectMultiDataset(t *testing.T) {
	p := problem(t, 7, 30, 10, 3, 7)
	hasMulti := false
	for _, q := range p.Queries {
		if len(q.Demands) > 1 {
			hasMulti = true
		}
	}
	if !hasMulti {
		t.Skip("no multi-dataset query in instance")
	}
	for _, a := range algos {
		if _, err := a.special(p); err == nil {
			t.Fatalf("%s-S accepted multi-dataset queries", a.name)
		}
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	for _, a := range algos {
		p1 := problem(t, 9, 35, 10, 3, 5)
		p2 := problem(t, 9, 35, 10, 3, 5)
		s1, err := a.general(p1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := a.general(p2)
		if err != nil {
			t.Fatal(err)
		}
		if s1.Volume(p1) != s2.Volume(p2) || len(s1.Admitted()) != len(s2.Admitted()) {
			t.Fatalf("%s-G non-deterministic", a.name)
		}
	}
}

func TestGraphPrePlacesAtMostKReplicas(t *testing.T) {
	for _, k := range []int{1, 2, 5} {
		p := problem(t, 11, 20, 8, k, 4)
		sol, err := GraphG(p)
		if err != nil {
			t.Fatal(err)
		}
		for n := range p.Datasets {
			if got := sol.ReplicaCount(workload.DatasetID(n)); got > k {
				t.Fatalf("K=%d: dataset %d has %d replicas", k, n, got)
			}
		}
	}
}

func TestGreedyPrefersHighCapacityNodes(t *testing.T) {
	p := problem(t, 13, 30, 10, 2, 1)
	sol, err := GreedyG(p)
	if err != nil {
		t.Fatal(err)
	}
	// Data centers have far more capacity than cloudlets (200–700 vs
	// 8–16 GHz), so greedy must put the bulk of assignments on DCs.
	dc, cl := 0, 0
	for _, a := range sol.Assignments {
		if p.Cloud.Topology().Node(a.Node).Kind == topology.DataCenter {
			dc++
		} else {
			cl++
		}
	}
	if dc == 0 || dc < cl {
		t.Fatalf("capacity-greedy placed %d on DCs vs %d on cloudlets", dc, cl)
	}
}

func TestPopularityConcentratesReplicas(t *testing.T) {
	p := problem(t, 15, 60, 10, 3, 3)
	sol, err := PopularityG(p)
	if err != nil {
		t.Fatal(err)
	}
	// Popularity feedback should concentrate replicas: the most-loaded
	// node should hold clearly more replicas than the average node.
	perNode := map[int]int{}
	for _, nodes := range sol.Replicas {
		for _, v := range nodes {
			perNode[int(v)]++
		}
	}
	if len(perNode) == 0 {
		t.Skip("no replicas placed")
	}
	maxR, total := 0, 0
	for _, c := range perNode {
		total += c
		if c > maxR {
			maxR = c
		}
	}
	avg := float64(total) / float64(len(p.Cloud.ComputeNodes()))
	if float64(maxR) < 2*avg {
		t.Fatalf("popularity did not concentrate replicas: max %d vs avg %.2f", maxR, avg)
	}
}

// The headline comparison of the paper: the primal-dual algorithm beats all
// baselines on volume on the default-scale instance (Figs. 2–3 show 1.7–5×).
// A single seed could flip by luck, so compare means across seeds.
func TestApproBeatsBaselinesOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison skipped in -short")
	}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	var approSum float64
	sums := map[string]float64{}
	for _, seed := range seeds {
		p := problem(t, seed, 60, 12, 3, 5)
		res, err := core.ApproG(p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		approSum += res.Solution.Volume(p)
		for _, a := range algos {
			pb := problem(t, seed, 60, 12, 3, 5)
			sol, err := a.general(pb)
			if err != nil {
				t.Fatal(err)
			}
			sums[a.name] += sol.Volume(pb)
		}
	}
	for name, sum := range sums {
		if approSum <= sum {
			t.Errorf("Appro-G mean volume %.1f not above %s-G %.1f", approSum/8, name, sum/8)
		}
	}
}

// Property: all baselines produce validator-clean solutions on arbitrary
// seeds and K.
func TestBaselinesAlwaysFeasibleProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := 1 + int(kRaw)%7
		for _, a := range algos {
			p := problem(t, seed, 30, 10, k, 5)
			sol, err := a.general(p)
			if err != nil {
				return false
			}
			if err := sol.Validate(p); err != nil {
				return false
			}
			if err := invariant.CheckSolution(p, sol, sol.Volume(p)); err != nil {
				t.Logf("%s-G invariant: %v", a.name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGreedyG(b *testing.B) {
	p := problem(b, 1, 100, 20, 3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyG(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphG(b *testing.B) {
	p := problem(b, 1, 100, 20, 3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GraphG(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPopularityG(b *testing.B) {
	p := problem(b, 1, 100, 20, 3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PopularityG(p); err != nil {
			b.Fatal(err)
		}
	}
}
