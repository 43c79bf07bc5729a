package topology

import (
	"math"
	"testing"
	"testing/quick"

	"edgerep/internal/graph"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.DataCenters != 6 || c.Cloudlets != 24 || c.Switches != 2 {
		t.Fatalf("default mix %d/%d/%d, paper uses 6 DCs, 24 cloudlets, 2 switches",
			c.DataCenters, c.Cloudlets, c.Switches)
	}
	if c.EdgeProb != 0.2 {
		t.Fatalf("edge probability %v, paper uses 0.2", c.EdgeProb)
	}
	if c.DCCapMin != 200 || c.DCCapMax != 700 {
		t.Fatalf("DC capacity range [%v,%v], paper uses [200,700]", c.DCCapMin, c.DCCapMax)
	}
	if c.CLCapMin != 8 || c.CLCapMax != 16 {
		t.Fatalf("cloudlet capacity range [%v,%v], paper uses [8,16]", c.CLCapMin, c.CLCapMax)
	}
}

func TestGenerateDefault(t *testing.T) {
	top := MustGenerate(DefaultConfig())
	if got := top.NumCompute(); got != 30 {
		t.Fatalf("compute nodes = %d, want 30", got)
	}
	if got := top.Graph.NumNodes(); got != 32 {
		t.Fatalf("total nodes = %d, want 32", got)
	}
	if len(top.Graph.Components()) != 1 {
		t.Fatal("generated topology disconnected")
	}
}

func TestGenerateCapacitiesInRange(t *testing.T) {
	c := DefaultConfig()
	top := MustGenerate(c)
	for _, id := range top.ComputeNodes {
		n := top.Node(id)
		switch n.Kind {
		case DataCenter:
			if n.CapacityGHz < c.DCCapMin || n.CapacityGHz > c.DCCapMax {
				t.Fatalf("DC %d capacity %v outside [%v,%v]", id, n.CapacityGHz, c.DCCapMin, c.DCCapMax)
			}
		case Cloudlet:
			if n.CapacityGHz < c.CLCapMin || n.CapacityGHz > c.CLCapMax {
				t.Fatalf("cloudlet %d capacity %v outside [%v,%v]", id, n.CapacityGHz, c.CLCapMin, c.CLCapMax)
			}
		default:
			t.Fatalf("compute node %d has kind %v", id, n.Kind)
		}
		if n.ProcDelayPerGB <= 0 {
			t.Fatalf("node %d has non-positive processing delay", id)
		}
	}
}

func TestForwardingNodesHaveNoCapacity(t *testing.T) {
	top := MustGenerate(DefaultConfig())
	for _, n := range top.Nodes {
		if (n.Kind == Switch || n.Kind == BaseStation) && n.CapacityGHz != 0 {
			t.Fatalf("%v node %d has capacity %v", n.Kind, n.ID, n.CapacityGHz)
		}
	}
}

func TestGenerateDeterministicBySeed(t *testing.T) {
	a := MustGenerate(DefaultConfig())
	b := MustGenerate(DefaultConfig())
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.Graph.NumEdges(), b.Graph.NumEdges())
	}
	for i := range a.Nodes {
		if a.Nodes[i].CapacityGHz != b.Nodes[i].CapacityGHz {
			t.Fatalf("same seed, node %d capacities differ", i)
		}
	}
	c := DefaultConfig()
	c.Seed = 999
	d := MustGenerate(c)
	same := a.Graph.NumEdges() == d.Graph.NumEdges()
	for i := range a.Nodes {
		if a.Nodes[i].CapacityGHz != d.Nodes[i].CapacityGHz {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical topology (suspicious)")
	}
}

func TestScaledConfigSizes(t *testing.T) {
	for _, n := range []int{20, 50, 100, 150, 200} {
		c := ScaledConfig(n, 7)
		if got := c.DataCenters + c.Cloudlets; got != n {
			t.Fatalf("ScaledConfig(%d) yields %d compute nodes", n, got)
		}
		top := MustGenerate(c)
		if top.NumCompute() != n {
			t.Fatalf("generated %d compute nodes, want %d", top.NumCompute(), n)
		}
		if len(top.Graph.Components()) != 1 {
			t.Fatalf("scaled topology n=%d disconnected", n)
		}
	}
}

func TestScaledConfigTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScaledConfig(1) did not panic")
		}
	}()
	ScaledConfig(1, 1)
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.DataCenters = 0 },
		func(c *Config) { c.Cloudlets = 0 },
		func(c *Config) { c.Switches = -1 },
		func(c *Config) { c.EdgeProb = -0.1 },
		func(c *Config) { c.EdgeProb = 1.5 },
		func(c *Config) { c.DCCapMin = 0 },
		func(c *Config) { c.DCCapMax = c.DCCapMin - 1 },
		func(c *Config) { c.CLCapMin = -3 },
		func(c *Config) { c.LinkDelayMin = 0 },
		func(c *Config) { c.LinkDelayMax = 0.01 },
		func(c *Config) { c.WANDelayFactor = 0.5 },
		func(c *Config) { c.DCProcDelayPerGB = 0 },
		func(c *Config) { c.CLProcDelayPerGB = -1 },
	}
	for i, m := range mut {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d accepted by Validate", i)
		}
		if _, err := Generate(c); err == nil {
			t.Fatalf("mutation %d accepted by Generate", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestTransferDelayFiniteAndSymmetric(t *testing.T) {
	top := MustGenerate(DefaultConfig())
	for _, u := range top.ComputeNodes {
		for _, v := range top.ComputeNodes {
			d := top.DelayTo(v)[u]
			if math.IsInf(d, 1) {
				t.Fatalf("infinite delay between compute nodes %d and %d", u, v)
			}
			if back := top.DelayTo(u)[v]; math.Abs(back-d) > 1e-9 {
				t.Fatalf("asymmetric delay %d<->%d: %v vs %v", u, v, d, back)
			}
			if u == v && d != 0 {
				t.Fatalf("self delay %v at node %d", d, u)
			}
		}
	}
}

// Property: any valid seed yields a connected topology with all compute
// capacities inside the configured ranges.
func TestGenerateInvariantsProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		n := 10 + int(sizeRaw)%120
		c := ScaledConfig(n, seed)
		top, err := Generate(c)
		if err != nil {
			return false
		}
		if len(top.Graph.Components()) != 1 {
			return false
		}
		for _, id := range top.ComputeNodes {
			node := top.Node(id)
			if node.CapacityGHz <= 0 {
				return false
			}
		}
		return top.NumCompute() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	top := MustGenerate(DefaultConfig())
	s := top.Describe()
	if s == "" {
		t.Fatal("empty description")
	}
	for _, want := range []string{"6 data centers", "24 cloudlets", "2 switches"} {
		if !contains(s, want) {
			t.Fatalf("Describe() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestNodeKindString(t *testing.T) {
	cases := map[NodeKind]string{
		DataCenter:   "datacenter",
		Cloudlet:     "cloudlet",
		Switch:       "switch",
		BaseStation:  "basestation",
		NodeKind(42): "NodeKind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("NodeKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestComputeNodesAscendingAndTyped(t *testing.T) {
	top := MustGenerate(DefaultConfig())
	for i := 1; i < len(top.ComputeNodes); i++ {
		if top.ComputeNodes[i] <= top.ComputeNodes[i-1] {
			t.Fatal("ComputeNodes not ascending")
		}
	}
	for _, id := range top.ComputeNodes {
		k := top.Node(id).Kind
		if k != DataCenter && k != Cloudlet {
			t.Fatalf("compute node %d has kind %v", id, k)
		}
	}
}

func TestGenerateNoSwitches(t *testing.T) {
	c := DefaultConfig()
	c.Switches = 0
	top := MustGenerate(c)
	if len(top.Graph.Components()) != 1 {
		t.Fatal("switchless topology disconnected")
	}
}

func TestGenerateWithBaseStations(t *testing.T) {
	c := DefaultConfig()
	c.BaseStations = 10
	top := MustGenerate(c)
	if got := top.Graph.NumNodes(); got != 42 {
		t.Fatalf("total nodes = %d, want 42", got)
	}
	bs := 0
	for _, n := range top.Nodes {
		if n.Kind == BaseStation {
			bs++
			deg := 0
			top.Graph.Neighbors(n.ID, func(graph.NodeID, float64) { deg++ })
			if deg == 0 {
				t.Fatalf("base station %d isolated", n.ID)
			}
		}
	}
	if bs != 10 {
		t.Fatalf("found %d base stations, want 10", bs)
	}
}

func BenchmarkGenerate200(b *testing.B) {
	c := ScaledConfig(200, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(c); err != nil {
			b.Fatal(err)
		}
	}
}
