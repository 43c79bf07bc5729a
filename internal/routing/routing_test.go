package routing

import (
	"math"
	"testing"

	"edgerep/internal/baselines"
	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// Total returns the volume·hop sum across all links.
func (lm LoadMap) Total() float64 {
	t := 0.0
	for _, v := range lm {
		t += v
	}
	return t
}

func instance(t testing.TB, seed int64) (*placement.Problem, *placement.Solution, *topology.Topology) {
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
	return p, res.Solution, top
}

func TestPathsMatchDistanceMatrix(t *testing.T) {
	_, _, top := instance(t, 1)
	r := NewRouter(top)
	if err := VerifyPathsMatchDistances(top, r); err != nil {
		t.Fatal(err)
	}
}

func TestPathEndpointsAndHops(t *testing.T) {
	_, _, top := instance(t, 2)
	r := NewRouter(top)
	u := top.ComputeNodes[0]
	v := top.ComputeNodes[len(top.ComputeNodes)-1]
	p, err := r.Path(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes[0] != u || p.Nodes[len(p.Nodes)-1] != v {
		t.Fatalf("path endpoints %v, want %d..%d", p.Nodes, u, v)
	}
	if p.Hops() != len(p.Nodes)-1 {
		t.Fatalf("Hops() = %d for %d nodes", p.Hops(), len(p.Nodes))
	}
	self, err := r.Path(u, u)
	if err != nil {
		t.Fatal(err)
	}
	if self.Hops() != 0 || self.DelayPerGB != 0 {
		t.Fatalf("self path %+v", self)
	}
}

func TestPathUnreachable(t *testing.T) {
	g := graph.New(2) // no edges
	top := &topology.Topology{
		Graph: g,
		Nodes: []topology.Node{
			{ID: 0, Kind: topology.Cloudlet, CapacityGHz: 10, ProcDelayPerGB: 1},
			{ID: 1, Kind: topology.Cloudlet, CapacityGHz: 10, ProcDelayPerGB: 1},
		},
		ComputeNodes: []graph.NodeID{0, 1},
	}
	r := NewRouter(top)
	if _, err := r.Path(0, 1); err == nil {
		t.Fatal("path across disconnected graph accepted")
	}
}

func TestLoadMapCharge(t *testing.T) {
	lm := make(LoadMap)
	p := Path{Nodes: []graph.NodeID{3, 1, 2}}
	lm.Charge(p, 2.5)
	if lm[canonical(1, 3)] != 2.5 || lm[canonical(1, 2)] != 2.5 {
		t.Fatalf("charge wrong: %v", lm)
	}
	lm.Charge(Path{Nodes: []graph.NodeID{1, 2}}, 1.5)
	if lm[canonical(1, 2)] != 4.0 {
		t.Fatalf("accumulation wrong: %v", lm)
	}
	if lm.Total() != 2.5+4.0 {
		t.Fatalf("Total = %v", lm.Total())
	}
	link, load := lm.Max()
	if load != 4.0 || link != canonical(1, 2) {
		t.Fatalf("Max = %v %v", link, load)
	}
}

func TestMeasureFootprint(t *testing.T) {
	p, sol, top := instance(t, 3)
	r := NewRouter(top)
	fp, err := MeasureFootprint(p, sol, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Assignments) > 0 && fp.Loads.Total() == 0 {
		// All transfers local (replica at home) is possible but unlikely
		// across 40 queries; treat as suspicious.
		t.Fatal("no link load despite assignments")
	}
	if fp.TotalGBHops < 0 || fp.MaxLinkGB < 0 || fp.ReplicationGBHops < 0 {
		t.Fatalf("negative footprint: %+v", fp)
	}
	if fp.MaxLinkGB > fp.Loads.Total()+1e-9 {
		t.Fatal("bottleneck exceeds total load")
	}
	// Cross-check TotalGBHops against an independent computation.
	want := 0.0
	for _, a := range sol.Assignments {
		d, _ := p.Demand(a.Query, a.Dataset)
		path, err := r.Path(a.Node, p.Queries[a.Query].Home)
		if err != nil {
			t.Fatal(err)
		}
		want += p.Datasets[a.Dataset].SizeGB * d.Selectivity * float64(path.Hops())
	}
	if math.Abs(fp.TotalGBHops-want) > 1e-9 {
		t.Fatalf("TotalGBHops %v, want %v", fp.TotalGBHops, want)
	}
}

// Per-GB traffic of any feasible placement is bounded by the network's hop
// diameter: no transfer can take more hops than the longest shortest path,
// and intermediate results never exceed the dataset volume (α ≤ 1).
func TestFootprintPerGBBoundedByHopDiameter(t *testing.T) {
	for _, mk := range []struct {
		name string
		run  func(*placement.Problem) (*placement.Solution, error)
	}{
		{"Appro-G", func(p *placement.Problem) (*placement.Solution, error) {
			r, err := core.ApproG(p, core.Options{})
			if err != nil {
				return nil, err
			}
			return r.Solution, nil
		}},
		{"Greedy-G", baselines.GreedyG},
	} {
		for seed := int64(1); seed <= 3; seed++ {
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
			sol, err := mk.run(p)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRouter(top)
			fp, err := MeasureFootprint(p, sol, r)
			if err != nil {
				t.Fatal(err)
			}
			// Hop diameter over compute nodes.
			maxHops := 0
			for _, u := range top.ComputeNodes {
				for _, v := range top.ComputeNodes {
					path, err := r.Path(u, v)
					if err != nil {
						t.Fatal(err)
					}
					if path.Hops() > maxHops {
						maxHops = path.Hops()
					}
				}
			}
			if vol := sol.Volume(p); vol > 0 {
				if per := fp.TotalGBHops / vol; per > float64(maxHops) {
					t.Fatalf("%s seed %d: %.2f GB·hops per admitted GB exceeds hop diameter %d",
						mk.name, seed, per, maxHops)
				}
			}
		}
	}
}

func TestFootprintEmptySolution(t *testing.T) {
	p, _, top := instance(t, 4)
	empty := placement.NewSolution()
	fp, err := MeasureFootprint(p, empty, NewRouter(top))
	if err != nil {
		t.Fatal(err)
	}
	if fp.TotalGBHops != 0 || fp.MaxLinkGB != 0 || len(fp.Loads) != 0 {
		t.Fatalf("non-zero footprint for empty solution: %+v", fp)
	}
}

func BenchmarkMeasureFootprint(b *testing.B) {
	p, sol, top := instance(b, 1)
	r := NewRouter(top)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureFootprint(p, sol, r); err != nil {
			b.Fatal(err)
		}
	}
}
