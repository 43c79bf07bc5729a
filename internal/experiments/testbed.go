package experiments

import (
	"fmt"
	"time"

	"edgerep/internal/analytics"
	"edgerep/internal/baselines"
	"edgerep/internal/cluster"
	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/metrics"
	"edgerep/internal/placement"
	"edgerep/internal/testbed"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// TestbedConfig parameterizes the testbed figures (Figs. 7–8). The layout
// mirrors the paper's §4.3: 4 data-center VMs (San Francisco, New York,
// Toronto, Singapore) + 16 cloudlet VMs + a controller.
type TestbedConfig struct {
	Seeds       []int64
	NumDatasets int
	NumQueries  int
	// K is the replica bound for Fig. 7; F the demanded-set bound for
	// Fig. 8.
	K int
	F int
	// FValues sweeps Fig. 7; KValues sweeps Fig. 8.
	FValues []int
	KValues []int
	// TraceRecords sizes the synthetic usage trace backing the datasets.
	TraceRecords int
	// LatencyScale compresses injected wall-clock delays during real
	// execution (1.0 = full inter-region latencies).
	LatencyScale float64
	// Execute runs the admitted queries of the first seed on a real TCP
	// cluster and reports measured latencies; off for pure-table runs.
	Execute bool
	// Concurrency is the number of queries in flight during real
	// execution; 0 or 1 means sequential. Real analysts issue queries
	// concurrently, and the nodes serve each connection in its own
	// goroutine, so higher concurrency stresses the same code path a
	// production deployment would.
	Concurrency int
}

// DefaultTestbedConfig returns the paper-shaped settings.
func DefaultTestbedConfig() TestbedConfig {
	return TestbedConfig{
		Seeds:        []int64{1, 2, 3, 4, 5, 6, 7, 8},
		NumDatasets:  10,
		NumQueries:   40,
		K:            3,
		F:            4,
		FValues:      []int{1, 2, 3, 4, 5, 6},
		KValues:      []int{1, 2, 3, 4, 5, 6, 7},
		TraceRecords: 20000,
		LatencyScale: 0.01,
		Execute:      true,
		Concurrency:  4,
	}
}

// QuickTestbedConfig returns a scaled-down configuration for tests.
func QuickTestbedConfig() TestbedConfig {
	c := DefaultTestbedConfig()
	c.Seeds = []int64{1, 2}
	c.FValues = []int{1, 3, 5}
	c.KValues = []int{1, 4, 7}
	c.TraceRecords = 4000
	c.LatencyScale = 0.002
	return c
}

// Validate reports the first configuration error, or nil.
func (c TestbedConfig) Validate() error {
	switch {
	case len(c.Seeds) == 0:
		return fmt.Errorf("experiments: no seeds")
	case c.NumDatasets < 1 || c.NumQueries < 1:
		return fmt.Errorf("experiments: empty workload")
	case c.K < 1 || c.F < 1:
		return fmt.Errorf("experiments: K=%d F=%d", c.K, c.F)
	case c.TraceRecords < c.NumDatasets:
		return fmt.Errorf("experiments: %d records cannot fill %d datasets", c.TraceRecords, c.NumDatasets)
	case c.LatencyScale < 0:
		return fmt.Errorf("experiments: negative latency scale")
	case c.Concurrency < 0:
		return fmt.Errorf("experiments: negative concurrency")
	}
	return nil
}

// testbedRegions matches testbed.DefaultClusterConfig.
var testbedRegions = []string{"san-francisco", "new-york", "toronto", "singapore"}

const testbedCloudlets = 16

// BuildTestbedTopology models the emulated cluster as a topology: node i of
// the model corresponds to node i of the TCP cluster. Transfer delays are
// the latency model's one-way delays read as seconds per GB, so the modeled
// problem and the emulation share one notion of distance. Capacities follow
// the paper's note that testbed "data centers" are just VMs — larger than
// cloudlets but not warehouse-scale.
func BuildTestbedTopology(lat *testbed.LatencyModel, seed int64) *topology.Topology {
	total := len(testbedRegions) + testbedCloudlets
	g := graph.New(total)
	nodes := make([]topology.Node, total)
	var compute []graph.NodeID

	region := func(i int) string {
		if i < len(testbedRegions) {
			return testbedRegions[i]
		}
		return "metro"
	}
	rng := newSplitMix(seed)
	for i := 0; i < total; i++ {
		kind := topology.Cloudlet
		capGHz := 8 + 8*rng.float64() // cloudlet VMs: [8,16] GHz
		proc := 0.030
		if i < len(testbedRegions) {
			kind = topology.DataCenter
			capGHz = 40 + 60*rng.float64() // DC VMs: [40,100] GHz
			proc = 0.050
		}
		nodes[i] = topology.Node{
			ID:             graph.NodeID(i),
			Kind:           kind,
			CapacityGHz:    capGHz,
			ProcDelayPerGB: proc,
			Region:         region(i),
		}
		compute = append(compute, graph.NodeID(i))
	}
	for u := 0; u < total; u++ {
		for v := u + 1; v < total; v++ {
			oneWay := lat.Delay(region(u), region(v), 0).Seconds() / lat.Scale
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), oneWay)
		}
	}
	return &topology.Topology{
		Graph:        g,
		Nodes:        nodes,
		ComputeNodes: compute,
	}
}

// splitMix is a tiny deterministic PRNG so topology building does not pull
// in math/rand state shared with workload generation.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{s: uint64(seed)*2685821657736338717 + 1} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// testbedWorkload draws a workload against the testbed topology with
// deadlines in the emulation's latency units.
func testbedWorkload(top *topology.Topology, seed int64, numDatasets, numQueries, f int) (*workload.Workload, error) {
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = numDatasets
	wc.NumQueries = numQueries
	wc.MaxDatasetsPerQuery = f
	// Deadlines in seconds per GB of the largest demanded dataset,
	// matched to the latency units of BuildTestbedTopology: cloudlets
	// (≈30ms/GB processing) are comfortably feasible, remote data centers
	// (50ms/GB processing + 30–115ms/GB transfer) only for low-α or
	// high-slack queries.
	wc.DeadlinePerGB = 0.060
	wc.DeadlineSlackMin = 0.5
	wc.DeadlineSlackMax = 1.5
	return workload.Generate(wc, top)
}

// ExecStats summarizes real execution of admitted queries on the TCP
// cluster.
type ExecStats struct {
	Queries        int
	MeanLatency    time.Duration
	MaxLatency     time.Duration
	Violations     int
	RecordsScanned int
}

// TestbedResult bundles a testbed figure's tables and optional execution
// statistics (one ExecStats per swept x value, first seed only).
type TestbedResult struct {
	Volume     *metrics.Table
	Throughput *metrics.Table
	Exec       map[string]map[int]ExecStats // algorithm → x → stats
}

// testbedAlgos returns the two competitors of the testbed figures.
func testbedAlgos(split bool) []Algorithm {
	if split {
		return []Algorithm{
			approS("Appro-S"),
			{Name: "Popularity-S", Run: baselines.PopularityS},
		}
	}
	return []Algorithm{
		approG("Appro-G"),
		{Name: "Popularity-G", Run: baselines.PopularityG},
	}
}

// Fig7 reproduces Fig. 7: Appro-S vs Popularity-S on the testbed, sweeping
// the maximum number F of datasets demanded by each query (special case:
// bundles are split into single-dataset queries).
func Fig7(cfg TestbedConfig) (*TestbedResult, error) {
	return testbedFigure(cfg, "Fig 7: testbed special case vs F",
		"max datasets per query F", cfg.FValues, true,
		func(x int) (f, k int) { return x, cfg.K })
}

// Fig8 reproduces Fig. 8: Appro-G vs Popularity-G on the testbed, sweeping
// the maximum number K of replicas of each dataset (general case).
func Fig8(cfg TestbedConfig) (*TestbedResult, error) {
	return testbedFigure(cfg, "Fig 8: testbed general case vs K",
		"max replicas per dataset K", cfg.KValues, false,
		func(x int) (f, k int) { return cfg.F, x })
}

func testbedFigure(cfg TestbedConfig, title, xlabel string, xs []int, split bool,
	params func(x int) (f, k int)) (*TestbedResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("experiments: empty sweep")
	}
	algos := testbedAlgos(split)
	lat := testbed.DefaultLatencyModel()
	progressStart(title, len(xs)*len(cfg.Seeds)*len(algos), len(xs))
	defer progressFinish()

	res := &TestbedResult{
		Volume:     metrics.NewTable(title+" (a)", xlabel, "volume of datasets demanded by admitted queries (GB)"),
		Throughput: metrics.NewTable(title+" (b)", xlabel, "system throughput"),
		Exec:       make(map[string]map[int]ExecStats),
	}

	// One real cluster reused across the sweep when executing.
	var tc *testbed.Cluster
	var trace []workload.UsageRecord
	if cfg.Execute {
		execLat := testbed.DefaultLatencyModel()
		execLat.Scale = cfg.LatencyScale
		clusterCfg := testbed.ClusterConfig{
			DataCenterRegions: testbedRegions,
			Cloudlets:         testbedCloudlets,
			Latency:           execLat,
		}
		var err error
		tc, err = testbed.StartCluster(clusterCfg)
		if err != nil {
			return nil, err
		}
		defer tc.Close()
		trc := workload.DefaultTraceConfig()
		trc.Records = cfg.TraceRecords
		trace, err = workload.GenerateTrace(trc)
		if err != nil {
			return nil, err
		}
	}

	// The emulated topology depends only on the seed, never on the swept
	// parameter: build each seed's once and reuse it across every x.
	tops := make([]*topology.Topology, len(cfg.Seeds))
	for si, seed := range cfg.Seeds {
		tops[si] = BuildTestbedTopology(lat, seed)
	}

	for _, x := range xs {
		f, k := params(x)
		type cell struct{ vol, tp float64 }
		results := make([][]cell, len(cfg.Seeds)) // [seed][algo]
		runSeed := func(si int, seed int64) error {
			results[si] = make([]cell, len(algos))
			sj := activeSweepJournal()
			key := ""
			if sj != nil {
				key = sweepCellKey(title, fmt.Sprintf("%d", x), seed)
				vals, replayed, err := sj.replayCell(key, 2*len(algos))
				if err != nil {
					return err
				}
				if replayed {
					// Model results and trace lines come from the journal;
					// real execution (Exec stats) is not repeated for
					// replayed cells — the tables stay byte-identical, the
					// wall-clock measurements cover only live cells.
					for ai := range algos {
						results[si][ai] = cell{vol: vals[2*ai], tp: vals[2*ai+1]}
						progressStep()
					}
					return nil
				}
			}
			top := tops[si]
			w, err := testbedWorkload(top, seed, cfg.NumDatasets, cfg.NumQueries, f)
			if err != nil {
				return err
			}
			if split {
				w = w.SplitSingleDataset()
			}
			// One problem serves both algorithms: neither mutates it.
			p, err := placement.NewProblem(cluster.New(top), w, k)
			if err != nil {
				return err
			}
			statInstances.Inc()
			if instrument.TraceActive() {
				instrument.SetTraceLabel(fmt.Sprintf("%s x=%d seed=%d", title, x, seed))
			}
			var capture *sweepCapture
			if sj != nil {
				capture = sj.beginCell()
			}
			for ai, a := range algos {
				sol, err := a.Run(p)
				if err != nil {
					return fmt.Errorf("experiments: %s x=%d seed=%d: %w", a.Name, x, seed, err)
				}
				statAlgoRuns.Inc()
				progressStep()
				results[si][ai] = cell{vol: sol.Volume(p), tp: sol.Throughput(p)}
				if cfg.Execute && si == 0 {
					stats, err := executeOnCluster(tc, p, sol, trace, cfg)
					if err != nil {
						return fmt.Errorf("experiments: execute %s x=%d: %w", a.Name, x, err)
					}
					if res.Exec[a.Name] == nil {
						res.Exec[a.Name] = make(map[int]ExecStats)
					}
					res.Exec[a.Name][x] = stats
				}
			}
			if sj != nil {
				vals := make([]float64, 0, 2*len(algos))
				for ai := range algos {
					vals = append(vals, results[si][ai].vol, results[si][ai].tp)
				}
				return sj.commitCell(key, vals, capture)
			}
			return nil
		}
		if cfg.Execute {
			// Real execution funnels through one TCP cluster; keep the
			// model runs sequential so measured latencies stay comparable.
			for si, seed := range cfg.Seeds {
				if err := runSeed(si, seed); err != nil {
					return nil, err
				}
			}
		} else if err := forEachSeed(cfg.Seeds, runSeed); err != nil {
			return nil, err
		}
		progressPointDone()
		tick := fmt.Sprintf("%d", x)
		for ai, a := range algos {
			var volSum, tpSum float64
			for si := range cfg.Seeds {
				volSum += results[si][ai].vol
				tpSum += results[si][ai].tp
			}
			res.Volume.AddPoint(a.Name, tick, volSum/float64(len(cfg.Seeds)))
			res.Throughput.AddPoint(a.Name, tick, tpSum/float64(len(cfg.Seeds)))
		}
	}
	if err := res.Volume.Validate(); err != nil {
		return nil, err
	}
	if err := res.Throughput.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// queryKinds cycles analytic requests over admitted queries, covering the
// paper's three example analyses (§4.3).
var queryKinds = []analytics.Request{
	{Kind: analytics.TopApps, K: 10},
	{Kind: analytics.HourlyHistogram},
	{Kind: analytics.AppUsagePattern, AppID: 0},
	{Kind: analytics.DistinctUsers},
}

// executeOnCluster replays a solution on the real TCP cluster: place every
// replica (real records travel to the node), then run every admitted query
// through its home node and measure wall-clock latency. A query's deadline
// in wall terms is its model deadline scaled by the cluster's latency
// scale, plus a fixed allowance for real JSON/compute overhead that the
// model does not account.
func executeOnCluster(tc *testbed.Cluster, p *placement.Problem, sol *placement.Solution,
	trace []workload.UsageRecord, cfg TestbedConfig) (ExecStats, error) {

	parts, err := workload.PartitionTrace(trace, len(p.Datasets))
	if err != nil {
		return ExecStats{}, err
	}
	for n, nodes := range sol.Replicas {
		for _, v := range nodes {
			if err := tc.Place(int(v), int(n), parts[n]); err != nil {
				return ExecStats{}, err
			}
		}
	}
	perQuery := make(map[workload.QueryID][]placement.Assignment)
	for _, a := range sol.Assignments {
		perQuery[a.Query] = append(perQuery[a.Query], a)
	}
	const computeAllowance = 50 * time.Millisecond
	var stats ExecStats

	type outcome struct {
		latency  time.Duration
		violated bool
		err      error
	}
	workers := cfg.Concurrency
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	admitted := sol.Admitted()
	results := make(chan outcome, len(admitted))
	for i, q := range admitted {
		plan := testbed.QueryPlan{
			HomeIndex: int(p.Queries[q].Home),
			Query:     queryKinds[i%len(queryKinds)],
		}
		for _, a := range perQuery[q] {
			plan.Targets = append(plan.Targets, struct {
				Dataset   int
				NodeIndex int
			}{Dataset: int(a.Dataset), NodeIndex: int(a.Node)})
			stats.RecordsScanned += len(parts[a.Dataset])
		}
		wallDeadline := time.Duration(p.Queries[q].DeadlineSec*cfg.LatencyScale*float64(time.Second)) +
			computeAllowance
		sem <- struct{}{}
		go func(plan testbed.QueryPlan, deadline time.Duration) {
			defer func() { <-sem }()
			ev, err := tc.Evaluate(plan)
			if err != nil {
				results <- outcome{err: err}
				return
			}
			results <- outcome{latency: ev.Latency, violated: ev.Latency > deadline}
		}(plan, wallDeadline)
	}
	for range admitted {
		r := <-results
		if r.err != nil {
			return ExecStats{}, r.err
		}
		stats.Queries++
		if r.latency > stats.MaxLatency {
			stats.MaxLatency = r.latency
		}
		stats.MeanLatency += r.latency
		if r.violated {
			stats.Violations++
		}
	}
	if stats.Queries > 0 {
		stats.MeanLatency /= time.Duration(stats.Queries)
	}
	return stats, nil
}
