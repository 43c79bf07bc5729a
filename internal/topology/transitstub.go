package topology

import (
	"fmt"
	"math/rand"

	"edgerep/internal/graph"
)

// TransitStubConfig parameterizes GT-ITM's signature hierarchical model [8]:
// a small transit backbone of well-connected domains, with stub domains
// hanging off transit nodes. In the two-tier edge cloud reading, transit
// domains are the wide-area backbone hosting the data centers, and stub
// domains are metropolitan clusters of cloudlets — a structurally faithful
// alternative to the flat iid-probability model the paper's experiments use
// (Generate). The topology-model sensitivity ablation compares the two.
type TransitStubConfig struct {
	// TransitDomains and TransitNodesPerDomain shape the backbone.
	TransitDomains        int
	TransitNodesPerDomain int
	// StubsPerTransitNode and StubNodesPerDomain shape the edge.
	StubsPerTransitNode int
	StubNodesPerDomain  int
	// EdgeProbTransit / EdgeProbStub are the intra-domain link
	// probabilities (a spanning path guarantees connectivity regardless).
	EdgeProbTransit float64
	EdgeProbStub    float64
	// Capacity and delay parameters mirror Config.
	DCCapMin, DCCapMax         float64
	CLCapMin, CLCapMax         float64
	LinkDelayMin, LinkDelayMax float64
	WANDelayFactor             float64
	DCProcDelayPerGB           float64
	CLProcDelayPerGB           float64
	Seed                       int64
}

// DefaultTransitStubConfig mirrors the paper's node counts: one backbone of
// 6 transit nodes (the data centers) and 24 cloudlets spread over stub
// domains.
func DefaultTransitStubConfig() TransitStubConfig {
	return TransitStubConfig{
		TransitDomains:        2,
		TransitNodesPerDomain: 3,
		StubsPerTransitNode:   1,
		StubNodesPerDomain:    4,
		EdgeProbTransit:       0.6,
		EdgeProbStub:          0.4,
		DCCapMin:              200,
		DCCapMax:              700,
		CLCapMin:              8,
		CLCapMax:              16,
		LinkDelayMin:          0.20,
		LinkDelayMax:          1.00,
		WANDelayFactor:        4.0,
		DCProcDelayPerGB:      0.4,
		CLProcDelayPerGB:      1.0,
		Seed:                  1,
	}
}

// Validate reports the first configuration error, or nil.
func (c TransitStubConfig) Validate() error {
	switch {
	case c.TransitDomains < 1 || c.TransitNodesPerDomain < 1:
		return fmt.Errorf("topology: transit-stub needs ≥1 transit domain and node")
	case c.StubsPerTransitNode < 0 || c.StubNodesPerDomain < 1:
		return fmt.Errorf("topology: bad stub shape %d×%d", c.StubsPerTransitNode, c.StubNodesPerDomain)
	case c.EdgeProbTransit < 0 || c.EdgeProbTransit > 1 || c.EdgeProbStub < 0 || c.EdgeProbStub > 1:
		return fmt.Errorf("topology: edge probabilities outside [0,1]")
	case c.DCCapMin <= 0 || c.DCCapMax < c.DCCapMin:
		return fmt.Errorf("topology: bad DC capacity range")
	case c.CLCapMin <= 0 || c.CLCapMax < c.CLCapMin:
		return fmt.Errorf("topology: bad cloudlet capacity range")
	case c.LinkDelayMin <= 0 || c.LinkDelayMax < c.LinkDelayMin:
		return fmt.Errorf("topology: bad link delay range")
	case c.WANDelayFactor < 1:
		return fmt.Errorf("topology: WAN factor %v < 1", c.WANDelayFactor)
	case c.DCProcDelayPerGB <= 0 || c.CLProcDelayPerGB <= 0:
		return fmt.Errorf("topology: non-positive processing delay")
	}
	return nil
}

// GenerateTransitStub builds a hierarchical two-tier edge cloud. Transit
// nodes become data centers; stub nodes become cloudlets. Intra-domain links
// are drawn with the configured probabilities on top of a spanning path per
// domain; transit domains interconnect pairwise; each stub domain attaches
// to its transit node through one WAN gateway link.
func GenerateTransitStub(c TransitStubConfig) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	linkDelay := func() float64 { return uniform(c.LinkDelayMin, c.LinkDelayMax) }
	wanDelay := func() float64 { return linkDelay() * c.WANDelayFactor }

	numTransit := c.TransitDomains * c.TransitNodesPerDomain
	numStubDomains := numTransit * c.StubsPerTransitNode
	numStub := numStubDomains * c.StubNodesPerDomain
	total := numTransit + numStub

	g := graph.New(total)
	nodes := make([]Node, total)
	compute := make([]graph.NodeID, 0, total)

	for i := 0; i < numTransit; i++ {
		nodes[i] = Node{
			ID:             graph.NodeID(i),
			Kind:           DataCenter,
			CapacityGHz:    uniform(c.DCCapMin, c.DCCapMax),
			ProcDelayPerGB: c.DCProcDelayPerGB,
			Region:         regions[(i/c.TransitNodesPerDomain)%len(regions)],
		}
		compute = append(compute, graph.NodeID(i))
	}
	for i := numTransit; i < total; i++ {
		nodes[i] = Node{
			ID:             graph.NodeID(i),
			Kind:           Cloudlet,
			CapacityGHz:    uniform(c.CLCapMin, c.CLCapMax),
			ProcDelayPerGB: c.CLProcDelayPerGB,
			Region:         "metro",
		}
		compute = append(compute, graph.NodeID(i))
	}

	// Intra-transit-domain: spanning path + random WAN links.
	for d := 0; d < c.TransitDomains; d++ {
		base := d * c.TransitNodesPerDomain
		for i := 0; i < c.TransitNodesPerDomain; i++ {
			for j := i + 1; j < c.TransitNodesPerDomain; j++ {
				u, v := graph.NodeID(base+i), graph.NodeID(base+j)
				if j == i+1 || rng.Float64() < c.EdgeProbTransit {
					g.AddEdge(u, v, wanDelay())
				}
			}
		}
	}
	// Inter-transit-domain: one WAN link between consecutive domains plus
	// random extras, so the backbone is connected.
	for d := 1; d < c.TransitDomains; d++ {
		u := graph.NodeID((d-1)*c.TransitNodesPerDomain + rng.Intn(c.TransitNodesPerDomain))
		v := graph.NodeID(d*c.TransitNodesPerDomain + rng.Intn(c.TransitNodesPerDomain))
		g.AddEdge(u, v, wanDelay())
	}

	// Stub domains: spanning path + random metro links; gateway to the
	// owning transit node.
	stub := numTransit
	for tn := 0; tn < numTransit; tn++ {
		for s := 0; s < c.StubsPerTransitNode; s++ {
			base := stub
			for i := 0; i < c.StubNodesPerDomain; i++ {
				for j := i + 1; j < c.StubNodesPerDomain; j++ {
					u, v := graph.NodeID(base+i), graph.NodeID(base+j)
					if j == i+1 || rng.Float64() < c.EdgeProbStub {
						g.AddEdge(u, v, linkDelay())
					}
				}
			}
			gw := graph.NodeID(base + rng.Intn(c.StubNodesPerDomain))
			g.AddEdge(gw, graph.NodeID(tn), wanDelay())
			stub += c.StubNodesPerDomain
		}
	}

	g.Connect(c.LinkDelayMax * c.WANDelayFactor)

	return &Topology{
		Graph:        g,
		Nodes:        nodes,
		ComputeNodes: compute,
	}, nil
}
