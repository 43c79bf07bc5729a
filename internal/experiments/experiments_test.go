package experiments

import (
	"fmt"
	"testing"

	"edgerep/internal/metrics"
	"edgerep/internal/testbed"
	"edgerep/internal/topology"
)

// tinySim keeps driver tests fast: two seeds, short sweeps.
func tinySim() SimConfig {
	c := QuickSimConfig()
	c.Seeds = []int64{1, 2}
	c.NetworkSizes = []int{20, 50}
	c.FValues = []int{1, 4}
	c.KValues = []int{1, 5}
	return c
}

func assertApproDominates(t *testing.T, tab *metrics.Table, appro string, rivals ...string) {
	t.Helper()
	for _, rival := range rivals {
		r, err := tab.Ratio(appro, rival)
		if err != nil {
			t.Fatal(err)
		}
		if r < 1.0 {
			t.Errorf("%s: %s/%s mean ratio %.3f < 1", tab.Title, appro, rival, r)
		}
	}
}

func TestFig2ShapeAndDominance(t *testing.T) {
	vol, tp, err := Fig2(tinySim())
	if err != nil {
		t.Fatal(err)
	}
	assertApproDominates(t, vol, "Appro-S", "Greedy-S", "Graph-S")
	assertApproDominates(t, tp, "Appro-S", "Greedy-S", "Graph-S")
	if len(vol.XTicks) != 2 || len(vol.Series) != 3 {
		t.Fatalf("unexpected table shape: %v / %d series", vol.XTicks, len(vol.Series))
	}
}

func TestFig3ShapeAndDominance(t *testing.T) {
	vol, tp, err := Fig3(tinySim())
	if err != nil {
		t.Fatal(err)
	}
	assertApproDominates(t, vol, "Appro-G", "Greedy-G", "Graph-G")
	assertApproDominates(t, tp, "Appro-G", "Greedy-G", "Graph-G")
}

func TestFig4ThroughputDecreasesInF(t *testing.T) {
	cfg := tinySim()
	cfg.FValues = []int{1, 5}
	_, tp, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tp.Series {
		first, _ := tp.Get(s.Name, "1")
		last, _ := tp.Get(s.Name, "5")
		if last >= first {
			t.Errorf("throughput of %s did not decrease in F: %.3f -> %.3f (paper Fig 4 trend)",
				s.Name, first, last)
		}
	}
}

func TestFig5BothMetricsIncreaseInK(t *testing.T) {
	cfg := tinySim()
	cfg.KValues = []int{1, 7}
	vol, tp, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*metrics.Table{vol, tp} {
		for _, s := range tab.Series {
			first, _ := tab.Get(s.Name, "1")
			last, _ := tab.Get(s.Name, "7")
			if last <= first {
				t.Errorf("%s of %s did not grow in K: %.3f -> %.3f (paper Fig 5 trend)",
					tab.YLabel, s.Name, first, last)
			}
		}
	}
}

func TestSimConfigValidation(t *testing.T) {
	bad := []func(*SimConfig){
		func(c *SimConfig) { c.Seeds = nil },
		func(c *SimConfig) { c.NumDatasets = 0 },
		func(c *SimConfig) { c.NumQueries = 0 },
		func(c *SimConfig) { c.K = 0 },
		func(c *SimConfig) { c.F = 0 },
	}
	for i, m := range bad {
		c := DefaultSimConfig()
		m(&c)
		if _, _, err := Fig2(c); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestBuildTestbedTopologyMatchesClusterLayout(t *testing.T) {
	lat := testbed.DefaultLatencyModel()
	top := BuildTestbedTopology(lat, 1)
	if top.NumCompute() != 20 {
		t.Fatalf("testbed topology has %d compute nodes, want 20 (paper: 4 DC + 16 cloudlet VMs)", top.NumCompute())
	}
	dcs, cls := 0, 0
	for _, n := range top.Nodes {
		if n.Kind == topology.DataCenter {
			dcs++
		} else {
			cls++
		}
	}
	if dcs != 4 || cls != 16 {
		t.Fatalf("layout %d DCs / %d cloudlets, want 4/16", dcs, cls)
	}
	// Metro-to-metro must be far cheaper than metro-to-Singapore.
	intra := top.DelayTo(6)[5]
	remote := top.DelayTo(3)[5] // node 3 = dc-singapore
	if intra >= remote {
		t.Fatalf("intra-metro delay %v not below WAN delay %v", intra, remote)
	}
}

func TestBuildTestbedTopologyDeterministic(t *testing.T) {
	lat := testbed.DefaultLatencyModel()
	a := BuildTestbedTopology(lat, 7)
	b := BuildTestbedTopology(lat, 7)
	for i := range a.Nodes {
		if a.Nodes[i].CapacityGHz != b.Nodes[i].CapacityGHz {
			t.Fatal("same seed produced different capacities")
		}
	}
	c := BuildTestbedTopology(lat, 8)
	same := true
	for i := range a.Nodes {
		if a.Nodes[i].CapacityGHz != c.Nodes[i].CapacityGHz {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical capacities")
	}
}

func quickTB(execute bool) TestbedConfig {
	c := QuickTestbedConfig()
	c.Seeds = []int64{1, 2}
	c.FValues = []int{1, 4}
	c.KValues = []int{1, 7}
	c.Execute = execute
	return c
}

func TestFig7ApproBeatsPopularity(t *testing.T) {
	res, err := Fig7(quickTB(false))
	if err != nil {
		t.Fatal(err)
	}
	assertApproDominates(t, res.Volume, "Appro-S", "Popularity-S")
	assertApproDominates(t, res.Throughput, "Appro-S", "Popularity-S")
	// Paper Fig 7: volume grows with F, throughput falls with F.
	for _, s := range res.Volume.Series {
		lo, _ := res.Volume.Get(s.Name, "1")
		hi, _ := res.Volume.Get(s.Name, "4")
		if hi <= lo {
			t.Errorf("volume of %s did not grow in F: %.1f -> %.1f", s.Name, lo, hi)
		}
	}
	for _, s := range res.Throughput.Series {
		lo, _ := res.Throughput.Get(s.Name, "1")
		hi, _ := res.Throughput.Get(s.Name, "4")
		if hi >= lo {
			t.Errorf("throughput of %s did not fall in F: %.3f -> %.3f", s.Name, lo, hi)
		}
	}
}

func TestFig8ApproBeatsPopularityAndGrowsInK(t *testing.T) {
	res, err := Fig8(quickTB(false))
	if err != nil {
		t.Fatal(err)
	}
	assertApproDominates(t, res.Volume, "Appro-G", "Popularity-G")
	for _, tab := range []*metrics.Table{res.Volume, res.Throughput} {
		for _, s := range tab.Series {
			lo, _ := tab.Get(s.Name, "1")
			hi, _ := tab.Get(s.Name, "7")
			if hi <= lo {
				t.Errorf("%s of %s did not grow in K", tab.YLabel, s.Name)
			}
		}
	}
}

func TestFig7RealExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP execution skipped in -short")
	}
	cfg := quickTB(true)
	cfg.FValues = []int{2}
	cfg.Seeds = []int64{1}
	cfg.TraceRecords = 2000
	res, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for algo, byX := range res.Exec {
		st, ok := byX[2]
		if !ok {
			t.Fatalf("%s: no exec stats for F=2", algo)
		}
		if st.Queries == 0 {
			t.Fatalf("%s: no queries executed", algo)
		}
		if st.MeanLatency <= 0 || st.MaxLatency < st.MeanLatency {
			t.Fatalf("%s: degenerate latency stats %+v", algo, st)
		}
		// The model's admitted queries must hold up under real execution.
		if st.Violations > st.Queries/4 {
			t.Errorf("%s: %d of %d executed queries violated scaled deadlines",
				algo, st.Violations, st.Queries)
		}
	}
}

func TestTestbedConfigValidation(t *testing.T) {
	bad := []func(*TestbedConfig){
		func(c *TestbedConfig) { c.Seeds = nil },
		func(c *TestbedConfig) { c.NumDatasets = 0 },
		func(c *TestbedConfig) { c.K = 0 },
		func(c *TestbedConfig) { c.F = 0 },
		func(c *TestbedConfig) { c.TraceRecords = 1 },
		func(c *TestbedConfig) { c.LatencyScale = -1 },
	}
	for i, m := range bad {
		c := DefaultTestbedConfig()
		m(&c)
		c.Execute = false
		if _, err := Fig7(c); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestGapPoint(t *testing.T) {
	g := GapPoint{Seed: 1, Optimal: 10, Appro: 8}
	if g.Gap() != 1.25 {
		t.Fatalf("Gap = %v, want 1.25", g.Gap())
	}
	if (GapPoint{Optimal: 5}).Gap() != 0 {
		t.Fatal("Gap with zero Appro should be 0")
	}
}

func ExampleFig5() {
	cfg := QuickSimConfig()
	cfg.Seeds = []int64{1}
	cfg.KValues = []int{1, 7}
	vol, _, err := Fig5(cfg)
	if err != nil {
		panic(err)
	}
	lo, _ := vol.Get("Appro-G", "1")
	hi, _ := vol.Get("Appro-G", "7")
	fmt.Println(hi > lo)
	// Output: true
}

func TestAblationDrivers(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.Seeds = []int64{1, 2}
	cfg.NumQueries = 40
	for _, d := range []struct {
		name string
		run  func(AblationConfig) (*metrics.Table, error)
	}{
		{"price-base", AblationPriceBase},
		{"replica-price", AblationReplicaPrice},
		{"delay-price", AblationDelayPrice},
		{"mechanisms", AblationMechanisms},
		{"topology-model", AblationTopologyModel},
	} {
		t.Run(d.name, func(t *testing.T) {
			tab, err := d.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(tab.XTicks) < 2 {
				t.Fatalf("ablation %s has %d points", d.name, len(tab.XTicks))
			}
		})
	}
}

func TestAblationConfigValidation(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.Seeds = nil
	if _, err := AblationPriceBase(cfg); err == nil {
		t.Fatal("empty seeds accepted")
	}
	cfg = DefaultAblationConfig()
	cfg.K = 0
	if _, err := AblationMechanisms(cfg); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestOptimalityGapDriver(t *testing.T) {
	tab, points, err := OptimalityGap([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d gap points", len(points))
	}
	for _, gp := range points {
		if gp.Appro > gp.Optimal+1e-6 {
			t.Fatalf("seed %d: Appro %v exceeds optimum %v", gp.Seed, gp.Appro, gp.Optimal)
		}
	}
	if _, _, err := OptimalityGap(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestProactiveVsReactiveDriver(t *testing.T) {
	cfg := tinySim()
	cfg.KValues = []int{1, 5}
	tab, err := ProactiveVsReactive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := tab.Ratio("proactive (Appro-G)", "reactive (LRU cache)")
	if err != nil {
		t.Fatal(err)
	}
	if r <= 1 {
		t.Fatalf("proactive/reactive ratio %.2f ≤ 1 — contradicts the paper's premise", r)
	}
}

func TestOnlineVsOfflineDriver(t *testing.T) {
	cfg := tinySim()
	tab, err := OnlineVsOffline(cfg, []float64{2, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	// Short holds reuse capacity: the online engine must admit at least as
	// much volume as with effectively-infinite holds.
	for _, series := range []string{"online lazy", "online + forecast"} {
		short, _ := tab.Get(series, "2")
		long, _ := tab.Get(series, "1000")
		if short < long-1e-9 {
			t.Errorf("%s: short holds (%.1f) admitted less than long holds (%.1f)",
				series, short, long)
		}
	}
	if _, err := OnlineVsOffline(cfg, nil); err == nil {
		t.Fatal("empty hold sweep accepted")
	}
}
