package reactive

import (
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

func problem(t testing.TB, seed int64, nq int) *placement.Problem {
	t.Helper()
	tc := topology.DefaultConfig()
	tc.Seed = seed
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = 10
	wc.NumQueries = nq
	wc.MaxDatasetsPerQuery = 4
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReactiveAdmitsAndAccounts(t *testing.T) {
	p := problem(t, 1, 40)
	res, err := Run(p, Options{ColdStartAtOrigin: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Admitted()) == 0 {
		t.Fatal("reactive engine admitted nothing")
	}
	if res.Hits == 0 {
		t.Fatal("no cache hits despite origin cold start")
	}
	// Every admitted query has one assignment per demand.
	count := map[workload.QueryID]int{}
	for _, a := range res.Solution.Assignments {
		count[a.Query]++
	}
	for _, q := range res.Solution.Admitted() {
		if count[q] != len(p.Queries[q].Demands) {
			t.Fatalf("query %d served %d/%d demands", q, count[q], len(p.Queries[q].Demands))
		}
	}
}

func TestReactiveDeadlinesRespectedIncludingFetch(t *testing.T) {
	p := problem(t, 2, 40)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Without fetch accounting this would just be EvalDelay ≤ deadline;
	// the engine guarantees the *total* (fetch + eval) fit at admission
	// time, so the steady-state eval delay alone must certainly fit.
	for _, a := range res.Solution.Assignments {
		if !p.MeetsDeadline(a.Query, a.Dataset, a.Node) {
			t.Fatalf("query %d dataset %d served at %d beyond deadline", a.Query, a.Dataset, a.Node)
		}
	}
}

func TestColdStartMattersUnderTightDeadlines(t *testing.T) {
	pCold := problem(t, 3, 50)
	cold, err := Run(pCold, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pWarm := problem(t, 3, 50)
	warm, err := Run(pWarm, Options{ColdStartAtOrigin: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Solution.Volume(pWarm) < cold.Solution.Volume(pCold) {
		t.Fatalf("origin cold start hurt volume: %v vs %v",
			warm.Solution.Volume(pWarm), cold.Solution.Volume(pCold))
	}
}

// The paper's core claim: proactive placement beats reactive caching under
// QoS constraints, because cache-miss fetches blow tight deadlines.
func TestProactiveBeatsReactiveOnAverage(t *testing.T) {
	var proSum, reSum float64
	for seed := int64(1); seed <= 8; seed++ {
		pPro := problem(t, seed, 50)
		res, err := core.ApproG(pPro, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		proSum += res.Solution.Volume(pPro)
		pRe := problem(t, seed, 50)
		re, err := Run(pRe, Options{ColdStartAtOrigin: true})
		if err != nil {
			t.Fatal(err)
		}
		reSum += re.Solution.Volume(pRe)
	}
	if proSum <= reSum {
		t.Fatalf("proactive (%.1f) did not beat reactive (%.1f) on average", proSum/8, reSum/8)
	}
	t.Logf("proactive/reactive volume ratio: %.2f", proSum/reSum)
}

func TestEvictionsUnderSmallK(t *testing.T) {
	tc := topology.DefaultConfig()
	tc.Seed = 5
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = 5
	wc.NumDatasets = 4
	wc.NumQueries = 80
	wc.MaxDatasetsPerQuery = 2
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 1) // K=1: heavy churn
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 && res.Misses > 1 {
		t.Log("no evictions despite K=1 — homes may cluster; acceptable but unusual")
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Run(problem(t, 7, 40), Options{ColdStartAtOrigin: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(problem(t, 7, 40), Options{ColdStartAtOrigin: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Solution.Volume(problem(t, 7, 40)) != b.Solution.Volume(problem(t, 7, 40)) ||
		a.Misses != b.Misses || a.Hits != b.Hits {
		t.Fatal("reactive engine nondeterministic")
	}
}

func BenchmarkReactive(b *testing.B) {
	p := problem(b, 1, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp := problem(b, 1, 100)
		if _, err := Run(pp, Options{ColdStartAtOrigin: true}); err != nil {
			b.Fatal(err)
		}
	}
	_ = p
}
