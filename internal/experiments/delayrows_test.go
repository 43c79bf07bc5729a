package experiments

import (
	"bytes"
	"math"
	"testing"

	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/server"
	"edgerep/internal/testbed"
	"edgerep/internal/topology"
)

// requireRowsMatchMatrix compares the delay rows a topology serves against
// the all-pairs matrix of a fresh distance cache over the same graph, bit for
// bit: DelayTo(t)[v] against Between(v, t) and DelayFrom(t)[v] against
// Between(t, v), for every node v and every node t. Every node is a target,
// not only the homes and origins a problem names, so the rows NewProblem
// built are checked along with every row a later reader could ask for. It
// returns the number of pairs compared.
func requireRowsMatchMatrix(t *testing.T, top *topology.Topology) int {
	t.Helper()
	oracle := graph.NewDistanceCache(top.Graph).Matrix()
	n := top.Graph.NumNodes()
	for tg := 0; tg < n; tg++ {
		target := graph.NodeID(tg)
		to, from := top.DelayTo(target), top.DelayFrom(target)
		for v := 0; v < n; v++ {
			node := graph.NodeID(v)
			if got, want := to[v], oracle.Between(node, target); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DelayTo(%d)[%d] = %v (%#x), matrix Between(%d, %d) = %v (%#x)",
					target, node, got, math.Float64bits(got), node, target, want, math.Float64bits(want))
			}
			if got, want := from[v], oracle.Between(target, node); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DelayFrom(%d)[%d] = %v, matrix Between(%d, %d) = %v", target, node, got, target, node, want)
			}
		}
	}
	return n * n
}

// TestDelayRowsMatchMatrix is the oracle of the delay rows: the delay model
// reads the row towards a query's home (re-summed from its Dijkstra tree) and
// the row from a dataset's origin, and each must hold the bits the all-pairs
// matrix held for the same pair. The instances are every shape the tests, the
// benchmark and EXPERIMENTS.md build: the daemon's instance at 30, 100, 200
// and 500 nodes over eight seeds and the benchmark's 1000-node curve point,
// the topologies of Figs. 2–5's cells at the paper's settings, the
// transit-stub generator, topologies loaded from their saved JSON (whose
// adjacency lists come back in another order) and the testbed topology.
func TestDelayRowsMatchMatrix(t *testing.T) {
	pairs := 0
	t.Run("BuildInstance", func(t *testing.T) {
		for _, nodes := range []int{30, 100, 200, 500} {
			for seed := int64(1); seed <= 8; seed++ {
				inst := server.DefaultInstance()
				if nodes > 30 {
					inst = server.InstanceConfig{Seed: seed, Nodes: nodes, Datasets: 40, Queries: 400, F: 5, K: 3}
				}
				inst.Seed = seed
				p, err := server.BuildInstance(inst)
				if err != nil {
					t.Fatal(err)
				}
				pairs += requireRowsMatchMatrix(t, p.Cloud.Topology())
			}
		}
		p, err := server.BuildInstance(server.InstanceConfig{Seed: 1, Nodes: 1000, Datasets: 40, Queries: 400, F: 5, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		pairs += requireRowsMatchMatrix(t, p.Cloud.Topology())
	})
	t.Run("Figs2-5", func(t *testing.T) {
		cfg := DefaultSimConfig()
		tc := newTopoCache()
		seen := map[*topology.Topology]bool{}
		check := func(p *placement.Problem, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if top := p.Cloud.Topology(); !seen[top] {
				seen[top] = true
				pairs += requireRowsMatchMatrix(t, top)
			}
		}
		for _, seed := range cfg.Seeds {
			for _, n := range cfg.NetworkSizes {
				check(tc.instance(seed, n, cfg.NumDatasets, cfg.NumQueries, cfg.F, cfg.K, true))  // Fig. 2
				check(tc.instance(seed, n, cfg.NumDatasets, cfg.NumQueries, cfg.F, cfg.K, false)) // Fig. 3
			}
			for _, f := range cfg.FValues { // Fig. 4
				check(tc.instance(seed, 30, cfg.NumDatasets, cfg.NumQueries, f, cfg.K, false))
			}
			for _, k := range cfg.KValues { // Fig. 5
				check(tc.instance(seed, 30, cfg.NumDatasets, cfg.NumQueries, cfg.F, k, false))
			}
		}
	})
	t.Run("transit-stub", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			c := topology.DefaultTransitStubConfig()
			c.Seed = seed
			top, err := topology.GenerateTransitStub(c)
			if err != nil {
				t.Fatal(err)
			}
			pairs += requireRowsMatchMatrix(t, top)
		}
	})
	t.Run("loaded", func(t *testing.T) {
		for _, nodes := range []int{30, 200} {
			for seed := int64(1); seed <= 4; seed++ {
				var buf bytes.Buffer
				if err := topology.MustGenerate(topology.ScaledConfig(nodes, seed)).Save(&buf); err != nil {
					t.Fatal(err)
				}
				top, err := topology.Load(&buf)
				if err != nil {
					t.Fatal(err)
				}
				pairs += requireRowsMatchMatrix(t, top)
			}
		}
	})
	t.Run("testbed", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			pairs += requireRowsMatchMatrix(t, BuildTestbedTopology(testbed.DefaultLatencyModel(), seed))
		}
	})
	t.Logf("%d (node, target) pairs, each read both ways, 0 differing", pairs)
}
