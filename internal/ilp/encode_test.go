package ilp

import (
	"testing"

	"edgerep/internal/baselines"
	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// tinyProblem builds an instance small enough for exact solving.
func tinyProblem(t testing.TB, seed int64, nq, nd, k int) *placement.Problem {
	t.Helper()
	tc := topology.DefaultConfig()
	tc.DataCenters = 2
	tc.Cloudlets = 6
	tc.Switches = 1
	tc.Seed = seed
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = nd
	wc.NumQueries = nq
	wc.MaxDatasetsPerQuery = 3
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSolveExactFeasible(t *testing.T) {
	p := tinyProblem(t, 1, 6, 4, 2)
	sol, err := SolveExact(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatalf("exact solution infeasible: %v", err)
	}
}

func TestExactDominatesHeuristics(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		p := tinyProblem(t, seed, 6, 4, 2)
		exact, err := SolveExact(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := exact.Volume(p)

		pa := tinyProblem(t, seed, 6, 4, 2)
		res, err := core.ApproG(pa, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Solution.Volume(pa); v > opt+1e-6 {
			t.Fatalf("seed %d: ApproG volume %v exceeds exact optimum %v", seed, v, opt)
		}

		pg := tinyProblem(t, seed, 6, 4, 2)
		gsol, err := baselines.GreedyG(pg)
		if err != nil {
			t.Fatal(err)
		}
		if v := gsol.Volume(pg); v > opt+1e-6 {
			t.Fatalf("seed %d: GreedyG volume %v exceeds exact optimum %v", seed, v, opt)
		}
	}
}

// The paper proves approximation ratio max(|Q|·|S|, |V|·|S|/K) for Appro-G.
// Empirically the achieved ratio should be drastically smaller; assert a
// loose factor 3 on tiny instances (DESIGN.md §3.1).
func TestEmpiricalApproximationRatio(t *testing.T) {
	worst := 1.0
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		p := tinyProblem(t, seed, 6, 4, 2)
		exact, err := SolveExact(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := exact.Volume(p)
		if opt == 0 {
			continue
		}
		pa := tinyProblem(t, seed, 6, 4, 2)
		res, err := core.ApproG(pa, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Solution.Volume(pa)
		if got <= 0 {
			t.Fatalf("seed %d: ApproG got nothing while optimum is %v", seed, opt)
		}
		if r := opt / got; r > worst {
			worst = r
		}
	}
	t.Logf("worst empirical optimum/ApproG ratio: %.3f", worst)
	if worst > 3 {
		t.Fatalf("empirical ratio %.3f exceeds 3 — far worse than expected", worst)
	}
}

func TestEncodeRejectsHugeInstances(t *testing.T) {
	tc := topology.DefaultConfig()
	tc.Seed = 1
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.NumDatasets = 20
	wc.NumQueries = 100
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(p); err == nil {
		t.Fatal("oversized instance accepted for exact solving")
	}
}

func TestEncodeVariableCount(t *testing.T) {
	p := tinyProblem(t, 3, 4, 3, 2)
	e, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	// x variables: |S|·|V| = 3·8 = 24; z: 4; π: ≤ Σ demands·|V|.
	min := 24 + 4
	if e.nVar < min {
		t.Fatalf("encoded %d variables, want ≥ %d", e.nVar, min)
	}
}

func TestExactDeterministic(t *testing.T) {
	p1 := tinyProblem(t, 9, 5, 3, 2)
	p2 := tinyProblem(t, 9, 5, 3, 2)
	s1, err := SolveExact(p1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SolveExact(p2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Volume(p1) != s2.Volume(p2) {
		t.Fatalf("exact solver nondeterministic: %v vs %v", s1.Volume(p1), s2.Volume(p2))
	}
}

func BenchmarkSolveExactTiny(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := tinyProblem(b, 1, 5, 3, 2)
		if _, err := SolveExact(p); err != nil {
			b.Fatal(err)
		}
	}
}
