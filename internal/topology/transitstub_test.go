package topology

import (
	"testing"
	"testing/quick"
)

func TestTransitStubDefault(t *testing.T) {
	top, err := GenerateTransitStub(DefaultTransitStubConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 2 domains × 3 transit + 6 transit × 1 stub × 4 = 6 DCs + 24 cloudlets.
	if top.NumCompute() != 30 {
		t.Fatalf("compute nodes = %d, want 30", top.NumCompute())
	}
	dcs, cls := 0, 0
	for _, n := range top.Nodes {
		switch n.Kind {
		case DataCenter:
			dcs++
		case Cloudlet:
			cls++
		}
	}
	if dcs != 6 || cls != 24 {
		t.Fatalf("mix %d DCs / %d cloudlets, want 6/24 (paper counts)", dcs, cls)
	}
	if len(top.Graph.Components()) != 1 {
		t.Fatal("transit-stub topology disconnected")
	}
}

func TestTransitStubHierarchyLocality(t *testing.T) {
	// Cloudlets inside the same stub domain must be closer to each other
	// (on average) than to cloudlets of a different transit node's stub —
	// the structural property that distinguishes transit-stub from the
	// flat model.
	c := DefaultTransitStubConfig()
	top, err := GenerateTransitStub(c)
	if err != nil {
		t.Fatal(err)
	}
	numTransit := c.TransitDomains * c.TransitNodesPerDomain
	sameSum, sameN := 0.0, 0
	crossSum, crossN := 0.0, 0
	stubOf := func(id int) int { return (id - numTransit) / c.StubNodesPerDomain }
	for i := numTransit; i < top.Graph.NumNodes(); i++ {
		for j := i + 1; j < top.Graph.NumNodes(); j++ {
			d := top.DelayTo(top.Nodes[j].ID)[top.Nodes[i].ID]
			if stubOf(i) == stubOf(j) {
				sameSum += d
				sameN++
			} else {
				crossSum += d
				crossN++
			}
		}
	}
	if sameN == 0 || crossN == 0 {
		t.Skip("degenerate stub layout")
	}
	if sameSum/float64(sameN) >= crossSum/float64(crossN) {
		t.Fatalf("no locality: intra-stub mean %.3f ≥ cross-stub mean %.3f",
			sameSum/float64(sameN), crossSum/float64(crossN))
	}
}

func TestTransitStubValidation(t *testing.T) {
	mut := []func(*TransitStubConfig){
		func(c *TransitStubConfig) { c.TransitDomains = 0 },
		func(c *TransitStubConfig) { c.TransitNodesPerDomain = 0 },
		func(c *TransitStubConfig) { c.StubNodesPerDomain = 0 },
		func(c *TransitStubConfig) { c.StubsPerTransitNode = -1 },
		func(c *TransitStubConfig) { c.EdgeProbTransit = 1.5 },
		func(c *TransitStubConfig) { c.EdgeProbStub = -0.1 },
		func(c *TransitStubConfig) { c.DCCapMin = 0 },
		func(c *TransitStubConfig) { c.CLCapMax = c.CLCapMin - 1 },
		func(c *TransitStubConfig) { c.LinkDelayMin = 0 },
		func(c *TransitStubConfig) { c.WANDelayFactor = 0.9 },
		func(c *TransitStubConfig) { c.DCProcDelayPerGB = 0 },
	}
	for i, m := range mut {
		c := DefaultTransitStubConfig()
		m(&c)
		if _, err := GenerateTransitStub(c); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestTransitStubDeterministic(t *testing.T) {
	a, err := GenerateTransitStub(DefaultTransitStubConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTransitStub(DefaultTransitStubConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed, different edge counts")
	}
	for i := range a.Nodes {
		if a.Nodes[i].CapacityGHz != b.Nodes[i].CapacityGHz {
			t.Fatal("same seed, different capacities")
		}
	}
}

// Property: any valid shape is connected with the right node counts.
func TestTransitStubInvariantsProperty(t *testing.T) {
	f := func(seed int64, td, tn, sp, sn uint8) bool {
		c := DefaultTransitStubConfig()
		c.Seed = seed
		c.TransitDomains = 1 + int(td)%3
		c.TransitNodesPerDomain = 1 + int(tn)%4
		c.StubsPerTransitNode = int(sp) % 3
		c.StubNodesPerDomain = 1 + int(sn)%5
		top, err := GenerateTransitStub(c)
		if err != nil {
			return false
		}
		wantTransit := c.TransitDomains * c.TransitNodesPerDomain
		wantStub := wantTransit * c.StubsPerTransitNode * c.StubNodesPerDomain
		return len(top.Graph.Components()) == 1 && top.NumCompute() == wantTransit+wantStub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
