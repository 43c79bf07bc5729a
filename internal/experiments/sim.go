// Package experiments contains one driver per figure of the paper's
// evaluation (§4). Each driver sweeps the figure's x-axis, runs the
// relevant algorithms on the same instances, and returns two metrics.Table
// values — the volume of datasets demanded by admitted queries (panel a) and
// the system throughput (panel b) — exactly the two metrics every figure of
// the paper reports. Values are means over cfg.Seeds topologies, mirroring
// the paper's "mean of the results ... on 15 different topologies".
package experiments

import (
	"fmt"
	"sync"

	"edgerep/internal/baselines"
	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/instrument"
	"edgerep/internal/metrics"
	"edgerep/internal/par"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// Driver instrumentation (enabled via instrument.Enable; surfaced by the
// cmd/ binaries' -stats flag). The topo counters
// quantify how much redundant generation the per-driver topology cache
// eliminates: a figure whose x-axis does not alter |V| (Figs. 4–5) hits the
// cache for every x beyond the first.
var (
	statTopoBuilds = instrument.NewCounter("experiments.topo_builds")
	statTopoHits   = instrument.NewCounter("experiments.topo_cache_hits")
	statInstances  = instrument.NewCounter("experiments.instances_built")
	statAlgoRuns   = instrument.NewCounter("experiments.algorithm_runs")
)

// SimConfig parameterizes the simulation figures (Figs. 2–5).
type SimConfig struct {
	// Seeds lists the topology/workload seeds averaged per point; the
	// paper averages 15 topologies.
	Seeds []int64
	// NumDatasets and NumQueries fix the workload size (the paper draws
	// them from [5,20] and [10,100]; the drivers pin them so sweeps vary
	// only the intended parameter).
	NumDatasets int
	NumQueries  int
	// K is the replica bound for figures that do not sweep it.
	K int
	// F is the maximum demanded-set size for figures that do not sweep it.
	F int
	// NetworkSizes is the |V| sweep of Figs. 2–3.
	NetworkSizes []int
	// FValues is the sweep of Fig. 4 (1..6 in the paper).
	FValues []int
	// KValues is the sweep of Fig. 5 (1..7 in the paper).
	KValues []int
}

// DefaultSimConfig returns the paper's settings.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Seeds:        []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		NumDatasets:  12,
		NumQueries:   60,
		K:            3,
		F:            5,
		NetworkSizes: []int{20, 50, 80, 110, 140, 170, 200},
		FValues:      []int{1, 2, 3, 4, 5, 6},
		KValues:      []int{1, 2, 3, 4, 5, 6, 7},
	}
}

// QuickSimConfig returns a scaled-down configuration for tests and benches.
func QuickSimConfig() SimConfig {
	c := DefaultSimConfig()
	c.Seeds = []int64{1, 2, 3}
	c.NetworkSizes = []int{20, 50, 80}
	c.FValues = []int{1, 3, 5}
	c.KValues = []int{1, 3, 5, 7}
	return c
}

// Validate reports the first configuration error, or nil.
func (c SimConfig) Validate() error {
	switch {
	case len(c.Seeds) == 0:
		return fmt.Errorf("experiments: no seeds")
	case c.NumDatasets < 1 || c.NumQueries < 1:
		return fmt.Errorf("experiments: empty workload")
	case c.K < 1:
		return fmt.Errorf("experiments: K = %d", c.K)
	case c.F < 1:
		return fmt.Errorf("experiments: F = %d", c.F)
	}
	return nil
}

// Algorithm is one named placement algorithm run by a driver.
type Algorithm struct {
	Name string
	Run  func(*placement.Problem) (*placement.Solution, error)
}

// approG adapts core.ApproG to the Algorithm signature.
func approG(name string) Algorithm {
	return Algorithm{Name: name, Run: func(p *placement.Problem) (*placement.Solution, error) {
		res, err := core.ApproG(p, core.Options{})
		if err != nil {
			return nil, err
		}
		return res.Solution, nil
	}}
}

// approS adapts core.ApproS.
func approS(name string) Algorithm {
	return Algorithm{Name: name, Run: func(p *placement.Problem) (*placement.Solution, error) {
		res, err := core.ApproS(p, core.Options{})
		if err != nil {
			return nil, err
		}
		return res.Solution, nil
	}}
}

// generalAlgos are the general-case competitors of Figs. 3–5.
func generalAlgos() []Algorithm {
	return []Algorithm{
		approG("Appro-G"),
		{Name: "Greedy-G", Run: baselines.GreedyG},
		{Name: "Graph-G", Run: baselines.GraphG},
	}
}

// specialAlgos are the special-case competitors of Fig. 2.
func specialAlgos() []Algorithm {
	return []Algorithm{
		approS("Appro-S"),
		{Name: "Greedy-S", Run: baselines.GreedyS},
		{Name: "Graph-S", Run: baselines.GraphS},
	}
}

// newProblem wraps placement.NewProblem for drivers that build their own
// topology and workload.
func newProblem(top *topology.Topology, w *workload.Workload, k int) (*placement.Problem, error) {
	statInstances.Inc()
	return placement.NewProblem(cluster.New(top), w, k)
}

// topoCache memoizes generated topologies per (seed, size). A topology is
// immutable after generation (its lazy distance cache locks internally), and
// the cluster view it is wrapped in is read-only, so one instance can safely
// back every problem of a driver — across algorithms, K values, and F values
// alike.
type topoCache struct {
	mu sync.Mutex
	m  map[topoKey]*topology.Topology
}

type topoKey struct {
	seed int64
	size int
}

func newTopoCache() *topoCache {
	return &topoCache{m: make(map[topoKey]*topology.Topology)}
}

// get returns the memoized topology for (seed, size), generating it on first
// use. Concurrent racers on the same key keep one canonical copy so every
// problem of a sweep shares the same distance cache.
func (tc *topoCache) get(seed int64, size int) (*topology.Topology, error) {
	key := topoKey{seed: seed, size: size}
	tc.mu.Lock()
	top, ok := tc.m[key]
	tc.mu.Unlock()
	if ok {
		statTopoHits.Inc()
		return top, nil
	}
	top, err := topology.Generate(topology.ScaledConfig(size, seed))
	if err != nil {
		return nil, err
	}
	statTopoBuilds.Inc()
	tc.mu.Lock()
	if prior, ok := tc.m[key]; ok {
		top = prior
	} else {
		tc.m[key] = top
	}
	tc.mu.Unlock()
	return top, nil
}

// instance builds the problem for one (seed, networkSize, F, K) point over a
// cached topology. split selects the paper's special case (every query
// demands one dataset).
func (tc *topoCache) instance(seed int64, networkSize, numDatasets, numQueries, f, k int, split bool) (*placement.Problem, error) {
	top, err := tc.get(seed, networkSize)
	if err != nil {
		return nil, err
	}
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = numDatasets
	wc.NumQueries = numQueries
	wc.MaxDatasetsPerQuery = f
	w, err := workload.Generate(wc, top)
	if err != nil {
		return nil, err
	}
	if split {
		w = w.SplitSingleDataset()
	}
	return newProblem(top, w, k)
}

// forEachSeed runs fn(i, seed) for every seed on every core (par.Do) and
// returns the first error in seed order; every seed runs either way.
// Callers store results in index-addressed slices, so any reduction after
// the seeds finish is deterministic at every GOMAXPROCS.
func forEachSeed(seeds []int64, fn func(i int, seed int64) error) error {
	errs := make([]error, len(seeds))
	if instrument.TraceActive() || activeSweepJournal() != nil {
		// A trace must be a totally ordered, replayable event stream; one
		// seed at a time keeps concurrent seed runs from interleaving in the
		// sink (and keeps the JSONL output byte-identical across runs). A
		// sweep journal serializes for the same reason: cells must commit in
		// a canonical order for a resumed run to be byte-identical.
		for i, seed := range seeds {
			errs[i] = fn(i, seed)
		}
	} else {
		par.Do(len(seeds), func(i int) { errs[i] = fn(i, seeds[i]) })
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep runs algorithms over an x-axis, averaging volume and throughput over
// seeds. build maps (seed, x) to a problem instance, built once per point and
// shared by every algorithm (none of them mutates the problem — each tracks
// capacity in private state). Seeds run concurrently;
// results land in an indexed matrix and are reduced in fixed order, so the
// tables are identical at any GOMAXPROCS.
func sweep(title, xlabel string, xs []int, seeds []int64, algos []Algorithm,
	build func(seed int64, x int) (*placement.Problem, error)) (*metrics.Table, *metrics.Table, error) {

	vol := metrics.NewTable(title+" (a)", xlabel, "volume of datasets demanded by admitted queries (GB)")
	tp := metrics.NewTable(title+" (b)", xlabel, "system throughput")
	progressStart(title, len(xs)*len(seeds)*len(algos), len(xs))
	defer progressFinish()
	for _, x := range xs {
		type cell struct{ vol, tp float64 }
		results := make([][]cell, len(seeds)) // [seed][algo]
		err := forEachSeed(seeds, func(si int, seed int64) error {
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
					for ai := range algos {
						results[si][ai] = cell{vol: vals[2*ai], tp: vals[2*ai+1]}
						progressStep()
					}
					return nil
				}
			}
			p, err := build(seed, x)
			if err != nil {
				return fmt.Errorf("experiments: build %s x=%d seed=%d: %w", title, x, seed, err)
			}
			if instrument.TraceActive() {
				// Stamp each run with its sweep point (runs are serialized
				// by forEachSeed while tracing, so the label is stable for
				// the whole (x, seed) cell).
				instrument.SetTraceLabel(fmt.Sprintf("%s x=%d seed=%d", title, x, seed))
			}
			var capture *sweepCapture
			if sj != nil {
				capture = sj.beginCell()
			}
			for ai, a := range algos {
				sol, err := a.Run(p)
				if err != nil {
					return fmt.Errorf("experiments: %s at x=%d seed=%d: %w", a.Name, x, seed, err)
				}
				statAlgoRuns.Inc()
				progressStep()
				results[si][ai] = cell{vol: sol.Volume(p), tp: sol.Throughput(p)}
			}
			if sj != nil {
				vals := make([]float64, 0, 2*len(algos))
				for ai := range algos {
					vals = append(vals, results[si][ai].vol, results[si][ai].tp)
				}
				return sj.commitCell(key, vals, capture)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		progressPointDone()
		sums := make([][2]float64, len(algos))
		for si := range seeds {
			for ai := range algos {
				sums[ai][0] += results[si][ai].vol
				sums[ai][1] += results[si][ai].tp
			}
		}
		tick := fmt.Sprintf("%d", x)
		for ai, a := range algos {
			vol.AddPoint(a.Name, tick, sums[ai][0]/float64(len(seeds)))
			tp.AddPoint(a.Name, tick, sums[ai][1]/float64(len(seeds)))
		}
	}
	if err := vol.Validate(); err != nil {
		return nil, nil, err
	}
	if err := tp.Validate(); err != nil {
		return nil, nil, err
	}
	return vol, tp, nil
}

// Fig2 reproduces Fig. 2: Appro-S vs Greedy-S vs Graph-S across network
// sizes, special case (each query demands a single dataset each time).
func Fig2(cfg SimConfig) (*metrics.Table, *metrics.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	tc := newTopoCache()
	return sweep("Fig 2: special case vs network size", "network size |V|",
		cfg.NetworkSizes, cfg.Seeds, specialAlgos(),
		func(seed int64, n int) (*placement.Problem, error) {
			return tc.instance(seed, n, cfg.NumDatasets, cfg.NumQueries, cfg.F, cfg.K, true)
		})
}

// Fig3 reproduces Fig. 3: Appro-G vs Greedy-G vs Graph-G across network
// sizes, general case (each query demands multiple datasets each time).
func Fig3(cfg SimConfig) (*metrics.Table, *metrics.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	tc := newTopoCache()
	return sweep("Fig 3: general case vs network size", "network size |V|",
		cfg.NetworkSizes, cfg.Seeds, generalAlgos(),
		func(seed int64, n int) (*placement.Problem, error) {
			return tc.instance(seed, n, cfg.NumDatasets, cfg.NumQueries, cfg.F, cfg.K, false)
		})
}

// Fig4 reproduces Fig. 4: impact of the maximum number F of datasets
// demanded by each query (general case, default topology size).
func Fig4(cfg SimConfig) (*metrics.Table, *metrics.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	tc := newTopoCache()
	return sweep("Fig 4: impact of F", "max datasets per query F",
		cfg.FValues, cfg.Seeds, generalAlgos(),
		func(seed int64, f int) (*placement.Problem, error) {
			return tc.instance(seed, 30, cfg.NumDatasets, cfg.NumQueries, f, cfg.K, false)
		})
}

// Fig5 reproduces Fig. 5: impact of the maximum number K of replicas of
// each dataset (general case, default topology size).
func Fig5(cfg SimConfig) (*metrics.Table, *metrics.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	tc := newTopoCache()
	return sweep("Fig 5: impact of K", "max replicas per dataset K",
		cfg.KValues, cfg.Seeds, generalAlgos(),
		func(seed int64, k int) (*placement.Problem, error) {
			return tc.instance(seed, 30, cfg.NumDatasets, cfg.NumQueries, cfg.F, k, false)
		})
}

// OptimalityGap compares Appro-G to the exact ILP optimum on tiny instances;
// not a paper figure, but the empirical backing for the approximation-ratio
// discussion (DESIGN.md §3.1, regenerated by BenchmarkOptimalityGap).
type GapPoint struct {
	Seed    int64
	Optimal float64
	Appro   float64
}

// Gap returns Optimal/Appro (1 means Appro matched the optimum).
func (g GapPoint) Gap() float64 {
	if g.Appro == 0 {
		return 0
	}
	return g.Optimal / g.Appro
}
