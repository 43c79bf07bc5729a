package core

import (
	"runtime"
	"testing"
	"testing/quick"

	"edgerep/internal/cluster"
	"edgerep/internal/invariant"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

func problem(t testing.TB, seed int64, nq, nd, k int) *placement.Problem {
	t.Helper()
	tc := topology.DefaultConfig()
	tc.Seed = seed
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = nd
	wc.NumQueries = nq
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func singleProblem(t testing.TB, seed int64, nq, nd, k int) *placement.Problem {
	t.Helper()
	tc := topology.DefaultConfig()
	tc.Seed = seed
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = nd
	wc.NumQueries = nq
	wc.MaxDatasetsPerQuery = 1
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestApproSRejectsMultiDatasetQueries(t *testing.T) {
	p := problem(t, 3, 30, 10, 3)
	multi := false
	for _, q := range p.Queries {
		if len(q.Demands) > 1 {
			multi = true
		}
	}
	if !multi {
		t.Skip("instance has no multi-dataset query")
	}
	if _, err := ApproS(p, Options{}); err == nil {
		t.Fatal("ApproS accepted multi-dataset queries")
	}
}

func TestApproSFeasibleAndAdmitsSomething(t *testing.T) {
	p := singleProblem(t, 1, 40, 10, 3)
	res, err := ApproS(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("ApproS solution infeasible: %v", err)
	}
	if err := invariant.CheckSolution(p, res.Solution, res.Solution.Volume(p)); err != nil {
		t.Fatalf("ApproS violates paper invariants: %v", err)
	}
	if len(res.Solution.Admitted()) == 0 {
		t.Fatal("ApproS admitted nothing on a routine instance")
	}
	if res.Rounds != len(res.Solution.Admitted()) {
		t.Fatalf("rounds %d != admitted %d", res.Rounds, len(res.Solution.Admitted()))
	}
	if res.Rounds+res.Rejected != len(p.Queries) {
		t.Fatalf("rounds %d + rejected %d != queries %d",
			res.Rounds, res.Rejected, len(p.Queries))
	}
}

func TestApproGFeasibleAndAdmitsSomething(t *testing.T) {
	p := problem(t, 2, 40, 12, 3)
	res, err := ApproG(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("ApproG solution infeasible: %v", err)
	}
	if err := invariant.CheckSolution(p, res.Solution, res.Solution.Volume(p)); err != nil {
		t.Fatalf("ApproG violates paper invariants: %v", err)
	}
	if len(res.Solution.Admitted()) == 0 {
		t.Fatal("ApproG admitted nothing on a routine instance")
	}
}

func TestApproGDeterministic(t *testing.T) {
	p1 := problem(t, 5, 35, 10, 3)
	p2 := problem(t, 5, 35, 10, 3)
	r1, err := ApproG(p1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ApproG(p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Solution.Volume(p1) != r2.Solution.Volume(p2) {
		t.Fatalf("non-deterministic volume: %v vs %v",
			r1.Solution.Volume(p1), r2.Solution.Volume(p2))
	}
	if len(r1.Solution.Admitted()) != len(r2.Solution.Admitted()) {
		t.Fatal("non-deterministic admission set size")
	}
	for i := range r1.Solution.Admitted() {
		if r1.Solution.Admitted()[i] != r2.Solution.Admitted()[i] {
			t.Fatal("non-deterministic admission set")
		}
	}
}

func TestApproGRespectsReplicaBoundTightly(t *testing.T) {
	for _, k := range []int{1, 2, 4, 7} {
		p := problem(t, 7, 50, 8, k)
		res, err := ApproG(p, Options{})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		for n, nodes := range res.Solution.Replicas {
			if len(nodes) > k {
				t.Fatalf("K=%d: dataset %d has %d replicas", k, n, len(nodes))
			}
		}
	}
}

func TestApproGMonotoneInK(t *testing.T) {
	// More replicas allowed can only help (paper Fig. 5 trend). The dual
	// ascent is a heuristic so tiny regressions are conceivable on
	// adversarial instances; we assert the paper's monotone trend on the
	// default instance with a small tolerance.
	prev := -1.0
	for _, k := range []int{1, 3, 5, 7} {
		p := problem(t, 11, 60, 10, k)
		res, err := ApproG(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		vol := res.Solution.Volume(p)
		if vol < prev*0.95 {
			t.Fatalf("volume dropped sharply when K grew: %v -> %v", prev, vol)
		}
		if vol > prev {
			prev = vol
		}
	}
}

func TestApproGAllOrNothing(t *testing.T) {
	p := problem(t, 13, 40, 10, 3)
	res, err := ApproG(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every admitted query must have exactly one assignment per demand.
	count := map[workload.QueryID]int{}
	for _, a := range res.Solution.Assignments {
		count[a.Query]++
	}
	for _, q := range res.Solution.Admitted() {
		if count[q] != len(p.Queries[q].Demands) {
			t.Fatalf("query %d admitted with %d/%d demands", q, count[q], len(p.Queries[q].Demands))
		}
	}
}

func TestPartialAdmissionServesAtLeastAsMuchVolume(t *testing.T) {
	p1 := problem(t, 17, 50, 10, 2)
	p2 := problem(t, 17, 50, 10, 2)
	full, err := ApproG(p1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := ApproG(p2, Options{PartialAdmission: true})
	if err != nil {
		t.Fatal(err)
	}
	servedVolume := func(res *Result, p *placement.Problem) float64 {
		v := 0.0
		for _, a := range res.Solution.Assignments {
			v += p.Datasets[a.Dataset].SizeGB
		}
		return v
	}
	if servedVolume(partial, p2) < servedVolume(full, p1)-1e-9 {
		t.Fatalf("partial admission served less volume (%v) than all-or-nothing (%v)",
			servedVolume(partial, p2), servedVolume(full, p1))
	}
}

func TestArbitraryOrderStillFeasible(t *testing.T) {
	p := problem(t, 19, 40, 10, 3)
	res, err := ApproG(p, Options{ArbitraryOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("arbitrary-order solution infeasible: %v", err)
	}
	if err := invariant.CheckSolution(p, res.Solution, res.Solution.Volume(p)); err != nil {
		t.Fatalf("arbitrary-order solution violates paper invariants: %v", err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if got := o.priceBase(); got != 2 {
		t.Fatalf("default price base = %v, want 2", got)
	}
	if got := o.replicaWeight(); got != 0.25 {
		t.Fatalf("default replica weight = %v, want 0.25", got)
	}
	if got := o.delayWeight(); got != 0.15 {
		t.Fatalf("default delay weight = %v, want 0.15", got)
	}
	o = Options{PriceBase: 3, ReplicaPriceWeight: 0.5, DelayPriceWeight: 0.4}
	if o.priceBase() != 3 || o.replicaWeight() != 0.5 || o.delayWeight() != 0.4 {
		t.Fatal("explicit options not honored")
	}
}

// Property: for any seed, ApproG yields a solution that passes the full ILP
// constraint validator, and its volume never exceeds the trivial bound.
func TestApproGAlwaysFeasibleProperty(t *testing.T) {
	f := func(seed int64, kRaw, nqRaw uint8) bool {
		k := 1 + int(kRaw)%7
		nq := 10 + int(nqRaw)%60
		p := problem(t, seed, nq, 10, k)
		res, err := ApproG(p, Options{})
		if err != nil {
			return false
		}
		if err := res.Solution.Validate(p); err != nil {
			return false
		}
		if err := invariant.CheckSolution(p, res.Solution, res.Solution.Volume(p)); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		return res.Solution.Volume(p) <= p.UpperBoundVolume()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The dual ascent must fill capacity productively: on a generously
// provisioned instance nearly all queries are admitted.
func TestApproGAdmitsMostWhenUncontended(t *testing.T) {
	tc := topology.DefaultConfig()
	tc.Seed = 23
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = 23
	wc.NumDatasets = 8
	wc.NumQueries = 15
	wc.DeadlinePerGB = 50 // loose deadlines
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ApproG(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Solution.Throughput(p); got < 0.8 {
		t.Fatalf("throughput %v on uncontended instance, want ≥ 0.8", got)
	}
}

// Tight deadlines must force rejections rather than violations.
func TestApproGTightDeadlines(t *testing.T) {
	tc := topology.DefaultConfig()
	tc.Seed = 29
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = 29
	wc.NumQueries = 40
	wc.NumDatasets = 10
	wc.DeadlinePerGB = 0.2
	wc.DeadlineSlackMin, wc.DeadlineSlackMax = 0.5, 0.8
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ApproG(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("solution under tight deadlines infeasible: %v", err)
	}
	if res.Solution.Throughput(p) > 0.99 {
		t.Log("warning: tight deadlines admitted everything — instance may be too easy")
	}
}

// approGAllocs and approGBytes bound what one ApproG solve of the bench's
// 500-node instance may allocate. Before the candidate lists it was 16 293
// objects and 6.3 MB (a delay cube, and a picks slice per bundle planned).
const (
	approGAllocs = 4000
	approGBytes  = 5 << 20
)

func BenchmarkApproG(b *testing.B) {
	loop := func(b *testing.B, p *placement.Problem) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ApproG(p, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("v30", func(b *testing.B) { loop(b, problem(b, 1, 100, 20, 3)) })
	// The bench's batch-solve instance; fails if a solve allocates more than
	// its pinned ceilings.
	b.Run("v500", func(b *testing.B) {
		p := benchProblem(b, 1, 5)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ApproG(p, Options{}); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > approGAllocs {
			b.Fatalf("one solve allocates %d objects, want at most %d", n, approGAllocs)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > approGBytes {
			b.Fatalf("one solve allocates %d bytes, want at most %d", n, approGBytes)
		}
		loop(b, p)
	})
}

func BenchmarkApproSSplit(b *testing.B) {
	tc := topology.DefaultConfig()
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.NumDatasets = 20
	wc.NumQueries = 100
	w := workload.MustGenerate(wc, top).SplitSingleDataset()
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApproS(p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestResultObservability(t *testing.T) {
	p := problem(t, 31, 40, 10, 3)
	res, err := ApproG(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalTheta) != len(p.Cloud.ComputeNodes()) {
		t.Fatalf("FinalTheta covers %d of %d nodes", len(res.FinalTheta), len(p.Cloud.ComputeNodes()))
	}
	// θ is a price: non-negative, and ≤ 1 at full utilization by the
	// (c^u − 1)/(c − 1) formula.
	for v, th := range res.FinalTheta {
		if th < 0 || th > 1+1e-9 {
			t.Fatalf("θ_%d = %v outside [0,1]", v, th)
		}
	}
	// Loaded nodes must be priced above idle nodes.
	load := res.Solution.ApplyLoad(p)
	var maxLoaded, idle = -1.0, -1.0
	for _, v := range p.Cloud.ComputeNodes() {
		u := load[v] / p.Cloud.Capacity(v)
		if u > 0.5 && res.FinalTheta[v] > maxLoaded {
			maxLoaded = res.FinalTheta[v]
		}
		if u == 0 && (idle == -1 || res.FinalTheta[v] > idle) {
			idle = res.FinalTheta[v]
		}
	}
	if maxLoaded > 0 && idle >= maxLoaded {
		t.Fatalf("idle node priced (%v) above loaded node (%v)", idle, maxLoaded)
	}
	// Preferred sites exist and respect K.
	if len(res.PreferredSites) == 0 {
		t.Fatal("no preferred sites recorded")
	}
	for n, vs := range res.PreferredSites {
		if len(vs) > p.MaxReplicas {
			t.Fatalf("dataset %d has %d preferred sites, K=%d", n, len(vs), p.MaxReplicas)
		}
	}
	// Lazy mode records none.
	p2 := problem(t, 31, 40, 10, 3)
	res2, err := ApproG(p2, Options{NoProactivePlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.PreferredSites) != 0 {
		t.Fatal("lazy mode recorded preferred sites")
	}
}
