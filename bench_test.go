// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4), plus the ablations of DESIGN.md §6. Each figure bench runs its
// experiment driver at a reduced-seed scale and reports the headline
// comparison as custom metrics (mean volume ratios and throughput deltas of
// Appro over the baselines) alongside the usual ns/op.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Full paper-scale tables come from the binaries instead:
//
//	go run ./cmd/edgerepsim -fig all
//	go run ./cmd/edgereptestbed -fig all
package edgerep

import (
	"fmt"
	"testing"

	"edgerep/internal/baselines"
	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/experiments"
	"edgerep/internal/ilp"
	"edgerep/internal/metrics"
	"edgerep/internal/placement"
	"edgerep/internal/reactive"
	"edgerep/internal/routing"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// benchSimConfig is the reduced-scale sweep used by the figure benches.
func benchSimConfig() experiments.SimConfig {
	cfg := experiments.QuickSimConfig()
	cfg.Seeds = []int64{1, 2, 3}
	return cfg
}

// reportRatios attaches Appro-vs-baseline ratios to the bench output.
func reportRatios(b *testing.B, vol, tp *metrics.Table, appro string, rivals ...string) {
	b.Helper()
	for _, r := range rivals {
		if ratio, err := vol.Ratio(appro, r); err == nil {
			b.ReportMetric(ratio, "volx_vs_"+r)
		}
		if ratio, err := tp.Ratio(appro, r); err == nil {
			b.ReportMetric(ratio, "tpx_vs_"+r)
		}
	}
}

// BenchmarkFig2NetworkSizeSpecial regenerates Fig. 2: Appro-S vs Greedy-S vs
// Graph-S across network sizes (special case, single-dataset queries).
func BenchmarkFig2NetworkSizeSpecial(b *testing.B) {
	cfg := benchSimConfig()
	var vol, tp *metrics.Table
	var err error
	for i := 0; i < b.N; i++ {
		vol, tp, err = experiments.Fig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatios(b, vol, tp, "Appro-S", "Greedy-S", "Graph-S")
}

// BenchmarkFig3NetworkSizeGeneral regenerates Fig. 3: the general case
// across network sizes.
func BenchmarkFig3NetworkSizeGeneral(b *testing.B) {
	cfg := benchSimConfig()
	var vol, tp *metrics.Table
	var err error
	for i := 0; i < b.N; i++ {
		vol, tp, err = experiments.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatios(b, vol, tp, "Appro-G", "Greedy-G", "Graph-G")
}

// BenchmarkFig4MaxDatasets regenerates Fig. 4: impact of the per-query
// demanded-set bound F.
func BenchmarkFig4MaxDatasets(b *testing.B) {
	cfg := benchSimConfig()
	cfg.FValues = []int{1, 2, 3, 4, 5, 6}
	var vol, tp *metrics.Table
	var err error
	for i := 0; i < b.N; i++ {
		vol, tp, err = experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatios(b, vol, tp, "Appro-G", "Greedy-G", "Graph-G")
	// The paper's headline trend: throughput decreases in F.
	first, _ := tp.Get("Appro-G", "1")
	last, _ := tp.Get("Appro-G", "6")
	b.ReportMetric(first-last, "tp_drop_F1_to_F6")
}

// BenchmarkFig5ReplicaBound regenerates Fig. 5: impact of the replica bound
// K.
func BenchmarkFig5ReplicaBound(b *testing.B) {
	cfg := benchSimConfig()
	cfg.KValues = []int{1, 3, 5, 7}
	var vol, tp *metrics.Table
	var err error
	for i := 0; i < b.N; i++ {
		vol, tp, err = experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatios(b, vol, tp, "Appro-G", "Greedy-G", "Graph-G")
	lo, _ := vol.Get("Appro-G", "1")
	hi, _ := vol.Get("Appro-G", "7")
	if lo > 0 {
		b.ReportMetric(hi/lo, "vol_growth_K1_to_K7")
	}
}

// benchTestbedConfig is the reduced-scale testbed sweep (tables only; the
// real-TCP execution path is exercised by BenchmarkFig7TestbedExecution).
func benchTestbedConfig() experiments.TestbedConfig {
	cfg := experiments.QuickTestbedConfig()
	cfg.Seeds = []int64{1, 2, 3}
	cfg.Execute = false
	return cfg
}

// BenchmarkFig7TestbedSpecial regenerates Fig. 7: Appro-S vs Popularity-S on
// the emulated testbed across F.
func BenchmarkFig7TestbedSpecial(b *testing.B) {
	cfg := benchTestbedConfig()
	var res *experiments.TestbedResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatios(b, res.Volume, res.Throughput, "Appro-S", "Popularity-S")
}

// BenchmarkFig8TestbedGeneral regenerates Fig. 8: Appro-G vs Popularity-G on
// the emulated testbed across K.
func BenchmarkFig8TestbedGeneral(b *testing.B) {
	cfg := benchTestbedConfig()
	var res *experiments.TestbedResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatios(b, res.Volume, res.Throughput, "Appro-G", "Popularity-G")
}

// BenchmarkFig7TestbedExecution runs the real-TCP execution path of the
// testbed figure once per iteration: replica placement with real records
// over sockets and distributed query evaluation with injected WAN latencies.
func BenchmarkFig7TestbedExecution(b *testing.B) {
	cfg := experiments.QuickTestbedConfig()
	cfg.Seeds = []int64{1}
	cfg.FValues = []int{3}
	cfg.TraceRecords = 2000
	cfg.Execute = true
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, byX := range res.Exec {
			for _, st := range byX {
				b.ReportMetric(float64(st.MeanLatency.Microseconds()), "mean_query_us")
			}
		}
	}
}

// benchProblem builds one default-scale instance.
func benchProblem(b *testing.B, seed int64, k int) *placement.Problem {
	b.Helper()
	tc := topology.DefaultConfig()
	tc.Seed = seed
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = 12
	wc.NumQueries = 60
	wc.MaxDatasetsPerQuery = 5
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, k)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkOptimalityGap compares Appro-G against the exact ILP optimum on
// tiny instances (the empirical counterpart of the paper's Theorem 1).
func BenchmarkOptimalityGap(b *testing.B) {
	tiny := func(seed int64) *placement.Problem {
		tc := topology.DefaultConfig()
		tc.DataCenters = 2
		tc.Cloudlets = 6
		tc.Switches = 1
		tc.Seed = seed
		top := topology.MustGenerate(tc)
		wc := workload.DefaultConfig()
		wc.Seed = seed
		wc.NumDatasets = 4
		wc.NumQueries = 6
		wc.MaxDatasetsPerQuery = 3
		w := workload.MustGenerate(wc, top)
		p, err := placement.NewProblem(cluster.New(top), w, 2)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	var worst, sum float64
	n := 0
	for i := 0; i < b.N; i++ {
		worst, sum, n = 0, 0, 0
		for seed := int64(1); seed <= 5; seed++ {
			exact, err := ilp.SolveExact(tiny(seed))
			if err != nil {
				b.Fatal(err)
			}
			p := tiny(seed)
			res, err := core.ApproG(p, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			got := res.Solution.Volume(p)
			opt := exact.Volume(tiny(seed))
			if got == 0 {
				continue
			}
			gap := opt / got
			sum += gap
			n++
			if gap > worst {
				worst = gap
			}
		}
	}
	if n > 0 {
		b.ReportMetric(worst, "worst_opt/appro")
		b.ReportMetric(sum/float64(n), "mean_opt/appro")
	}
}

// BenchmarkAblationPriceBase sweeps the θ price base c (DESIGN.md §6).
func BenchmarkAblationPriceBase(b *testing.B) {
	for _, base := range []float64{2, 4, 16, 61} {
		name := map[float64]string{2: "c=2(default)", 4: "c=4", 16: "c=16", 61: "c=1+|Q|"}[base]
		b.Run(name, func(b *testing.B) {
			var vol float64
			for i := 0; i < b.N; i++ {
				vol = 0
				for seed := int64(1); seed <= 3; seed++ {
					p := benchProblem(b, seed, 3)
					res, err := core.ApproG(p, core.Options{PriceBase: base})
					if err != nil {
						b.Fatal(err)
					}
					vol += res.Solution.Volume(p)
				}
			}
			b.ReportMetric(vol/3, "mean_volume_gb")
		})
	}
}

// BenchmarkAblationPartialAdmission compares all-or-nothing admission (the
// paper's rule) with partial bundle admission.
func BenchmarkAblationPartialAdmission(b *testing.B) {
	for _, partial := range []bool{false, true} {
		name := "all-or-nothing"
		if partial {
			name = "partial"
		}
		b.Run(name, func(b *testing.B) {
			var served float64
			for i := 0; i < b.N; i++ {
				served = 0
				for seed := int64(1); seed <= 3; seed++ {
					p := benchProblem(b, seed, 3)
					res, err := core.ApproG(p, core.Options{PartialAdmission: partial})
					if err != nil {
						b.Fatal(err)
					}
					for _, a := range res.Solution.Assignments {
						served += p.Datasets[a.Dataset].SizeGB
					}
				}
			}
			b.ReportMetric(served/3, "mean_served_gb")
		})
	}
}

// BenchmarkAblationOrdering compares min-cost-per-value selection against
// arbitrary (ID-order) admission.
func BenchmarkAblationOrdering(b *testing.B) {
	for _, arbitrary := range []bool{false, true} {
		name := "cost-per-value"
		if arbitrary {
			name = "id-order"
		}
		b.Run(name, func(b *testing.B) {
			var vol float64
			for i := 0; i < b.N; i++ {
				vol = 0
				for seed := int64(1); seed <= 3; seed++ {
					p := benchProblem(b, seed, 3)
					res, err := core.ApproG(p, core.Options{ArbitraryOrder: arbitrary})
					if err != nil {
						b.Fatal(err)
					}
					vol += res.Solution.Volume(p)
				}
			}
			b.ReportMetric(vol/3, "mean_volume_gb")
		})
	}
}

// BenchmarkAblationProactivePlacement quantifies the coverage-driven
// replication phase against lazy replica opening.
func BenchmarkAblationProactivePlacement(b *testing.B) {
	for _, lazy := range []bool{false, true} {
		name := "proactive"
		if lazy {
			name = "lazy"
		}
		b.Run(name, func(b *testing.B) {
			var vol float64
			for i := 0; i < b.N; i++ {
				vol = 0
				for seed := int64(1); seed <= 3; seed++ {
					p := benchProblem(b, seed, 3)
					res, err := core.ApproG(p, core.Options{NoProactivePlacement: lazy})
					if err != nil {
						b.Fatal(err)
					}
					vol += res.Solution.Volume(p)
				}
			}
			b.ReportMetric(vol/3, "mean_volume_gb")
		})
	}
}

// BenchmarkAblationReplicaPrice sweeps the replica-opening price weight.
func BenchmarkAblationReplicaPrice(b *testing.B) {
	for _, w := range []float64{0.05, 0.25, 1.0, 4.0} {
		b.Run(map[float64]string{0.05: "w=0.05", 0.25: "w=0.25(default)", 1.0: "w=1.0", 4.0: "w=4.0"}[w], func(b *testing.B) {
			var vol float64
			for i := 0; i < b.N; i++ {
				vol = 0
				for seed := int64(1); seed <= 3; seed++ {
					p := benchProblem(b, seed, 3)
					res, err := core.ApproG(p, core.Options{ReplicaPriceWeight: w})
					if err != nil {
						b.Fatal(err)
					}
					vol += res.Solution.Volume(p)
				}
			}
			b.ReportMetric(vol/3, "mean_volume_gb")
		})
	}
}

// BenchmarkProactiveVsReactive quantifies the paper's central premise:
// proactive replication vs on-demand (reactive) caching whose cache-miss
// fetches count against the deadline.
func BenchmarkProactiveVsReactive(b *testing.B) {
	var proSum, reSum float64
	for i := 0; i < b.N; i++ {
		proSum, reSum = 0, 0
		for seed := int64(1); seed <= 5; seed++ {
			pPro := benchProblem(b, seed, 3)
			res, err := core.ApproG(pPro, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			proSum += res.Solution.Volume(pPro)
			pRe := benchProblem(b, seed, 3)
			re, err := reactive.Run(pRe, reactive.Options{ColdStartAtOrigin: true})
			if err != nil {
				b.Fatal(err)
			}
			reSum += re.Solution.Volume(pRe)
		}
	}
	b.ReportMetric(proSum/5, "proactive_gb")
	b.ReportMetric(reSum/5, "reactive_gb")
	if reSum > 0 {
		b.ReportMetric(proSum/reSum, "proactive_x")
	}
}

// BenchmarkBottleneckRouting measures how much load-aware multipath routing
// flattens the worst link versus plain shortest-path transfers.
func BenchmarkBottleneckRouting(b *testing.B) {
	tc := topology.DefaultConfig()
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.NumDatasets = 12
	wc.NumQueries = 60
	wc.MaxDatasetsPerQuery = 5
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.ApproG(p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var single, multi *routing.Footprint
	for i := 0; i < b.N; i++ {
		single, err = routing.MeasureFootprint(p, res.Solution, routing.NewRouter(top))
		if err != nil {
			b.Fatal(err)
		}
		multi, err = routing.MeasureFootprintMultipath(p, res.Solution, top, 3, 1.5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(single.MaxLinkGB, "bottleneck_shortest_gb")
	b.ReportMetric(multi.MaxLinkGB, "bottleneck_loadaware_gb")
}

// BenchmarkAlgorithmsHeadToHead times all four algorithms on the same
// default-scale instance (the per-algorithm cost behind every figure).
func BenchmarkAlgorithmsHeadToHead(b *testing.B) {
	type algo struct {
		name string
		run  func(*placement.Problem) (*placement.Solution, error)
	}
	algos := []algo{
		{"ApproG", func(p *placement.Problem) (*placement.Solution, error) {
			r, err := core.ApproG(p, core.Options{})
			if err != nil {
				return nil, err
			}
			return r.Solution, nil
		}},
		{"GreedyG", baselines.GreedyG},
		{"GraphG", baselines.GraphG},
		{"PopularityG", baselines.PopularityG},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			p := benchProblem(b, 1, 3)
			b.ReportAllocs()
			b.ResetTimer()
			var vol float64
			for i := 0; i < b.N; i++ {
				sol, err := a.run(p)
				if err != nil {
					b.Fatal(err)
				}
				vol = sol.Volume(p)
			}
			b.ReportMetric(vol, "volume_gb")
		})
	}
}

// BenchmarkScalabilityNetworkSize measures how Appro-G's runtime scales with
// the network size |V| at fixed workload: the candidate lists are
// O(Σ|S(q)| · |V|) to build, and every bundle plan walks its own.
func BenchmarkScalabilityNetworkSize(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) { benchScalability(b, n, 15, 80) })
	}
}

// BenchmarkScalabilityQueries measures how it scales with |Q| on the bench's
// 500-node network, up to ten times the bench's 400 queries: the rounds grow
// with |Q|, and so does what each round has to look at.
func BenchmarkScalabilityQueries(b *testing.B) {
	for _, nq := range []int{400, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("Q=%d", nq), func(b *testing.B) { benchScalability(b, 500, 40, nq) })
	}
}

func benchScalability(b *testing.B, nodes, datasets, queries int) {
	top := topology.MustGenerate(topology.ScaledConfig(nodes, 1))
	wc := workload.DefaultConfig()
	wc.NumDatasets = datasets
	wc.NumQueries = queries
	wc.MaxDatasetsPerQuery = 5
	w := workload.MustGenerate(wc, top)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := placement.NewProblem(cluster.New(top), w, 3)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.ApproG(p, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Solution.Volume(p), "volume_gb")
		}
	}
}
