// Package topology generates two-tier edge-cloud topologies following the
// experimental setup of the paper (§4.1): data centers, cloudlets co-located
// with WMAN switches, gateway switches, and base stations, inter-connected by
// links generated with a GT-ITM-style model (each node pair is linked
// independently with probability 0.2). Random topologies may come out
// disconnected; they are repaired with spanning edges so that every query's
// home node can reach every replica node, which the paper implicitly assumes.
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"edgerep/internal/graph"
)

// NodeKind distinguishes the roles in the two-tier edge cloud.
type NodeKind int

const (
	// DataCenter is a remote data center (top tier).
	DataCenter NodeKind = iota
	// Cloudlet is an edge cloudlet co-located with a switch (bottom tier).
	Cloudlet
	// Switch is a WMAN switch / gateway without compute capacity.
	Switch
	// BaseStation is a user attachment point without compute capacity.
	BaseStation
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case DataCenter:
		return "datacenter"
	case Cloudlet:
		return "cloudlet"
	case Switch:
		return "switch"
	case BaseStation:
		return "basestation"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one vertex of the edge cloud with its physical attributes.
type Node struct {
	ID   graph.NodeID
	Kind NodeKind
	// CapacityGHz is the computing capacity B(v); zero for switches and
	// base stations, which only forward traffic.
	CapacityGHz float64
	// ProcDelayPerGB is d(v): seconds to process one GB of data per unit
	// of allocated computing resource. Data centers are faster than
	// cloudlets per unit because of better hardware.
	ProcDelayPerGB float64
	// Region is a coarse geographic label used by the testbed emulation.
	Region string
}

// Topology is a fully-built two-tier edge cloud.
type Topology struct {
	Graph *graph.Graph
	Nodes []Node
	// ComputeNodes lists the IDs of V = CL ∪ DC in ascending order.
	ComputeNodes []graph.NodeID

	// cache memoizes per-source Dijkstra trees over Graph and the delay rows
	// and matrix built from them, shared with routing so path reconstruction
	// reuses the same trees. Lazily created by DistanceCache.
	cacheOnce sync.Once
	cache     *graph.DistanceCache
}

// DistanceCache returns the topology's shared shortest-path cache, creating
// it on first use. All distance consumers (the delay rows, the matrix,
// routing, experiments) should resolve paths through this cache instead of
// running their own Dijkstra, so each source is computed at most once per
// topology. Safe for concurrent use.
func (t *Topology) DistanceCache() *graph.DistanceCache {
	t.cacheOnce.Do(func() {
		t.cache = graph.NewDistanceCache(t.Graph)
	})
	return t.cache
}

// DelayTo returns dt(p_{v,target}), the per-GB shortest-path transmission
// delay from every node v to target, indexed by node: the row the delay
// model reads for a query's home. It is built on first use (one Dijkstra from
// target) and equals Matrix().Between(v, target) bit for bit; see
// graph.DistanceCache.To. The caller must not modify it.
func (t *Topology) DelayTo(target graph.NodeID) []float64 {
	return t.DistanceCache().To(target)
}

// DelayFrom returns dt(p_{source,v}) for every node v, indexed by node: the
// row the consistency cost reads for a dataset's origin. It is source's
// Dijkstra distances, Matrix().Between(source, v) by construction. The caller
// must not modify it.
func (t *Topology) DelayFrom(source graph.NodeID) []float64 {
	return t.DistanceCache().From(source)
}

// Matrix returns the all-pairs delay matrix, built on first use (one
// Dijkstra from every node) and cached. The delay model does not read it:
// only all-pairs consumers such as the partitioning baseline and the tests
// that use it as the rows' oracle do.
func (t *Topology) Matrix() *graph.DistanceMatrix {
	return t.DistanceCache().Matrix()
}

// Config controls topology generation. Defaults mirror the paper: 6 data
// centers, 24 cloudlets, 2 gateway switches, link probability 0.2,
// data-center capacities in [200,700] GHz, cloudlet capacities in [8,16] GHz.
type Config struct {
	DataCenters  int
	Cloudlets    int
	Switches     int
	BaseStations int
	// EdgeProb is the GT-ITM iid link probability between node pairs.
	EdgeProb float64
	// DCCapMin/Max bound data-center computing capacity in GHz.
	DCCapMin, DCCapMax float64
	// CLCapMin/Max bound cloudlet computing capacity in GHz.
	CLCapMin, CLCapMax float64
	// LinkDelayMin/Max bound per-GB transmission delay of a WMAN link in
	// seconds.
	LinkDelayMin, LinkDelayMax float64
	// WANDelayFactor scales delays of links that cross the Internet to a
	// data center; WAN hops are slower than metropolitan ones.
	WANDelayFactor float64
	// DCProcDelayPerGB / CLProcDelayPerGB are the per-GB per-unit-resource
	// processing delays d(v).
	DCProcDelayPerGB float64
	CLProcDelayPerGB float64
	// Seed drives all randomness; the same seed yields the same topology.
	Seed int64
}

// DefaultConfig returns the paper's simulation settings (§4.1).
func DefaultConfig() Config {
	return Config{
		DataCenters:      6,
		Cloudlets:        24,
		Switches:         2,
		BaseStations:     0,
		EdgeProb:         0.2,
		DCCapMin:         200,
		DCCapMax:         700,
		CLCapMin:         8,
		CLCapMax:         16,
		LinkDelayMin:     0.20,
		LinkDelayMax:     1.00,
		WANDelayFactor:   4.0,
		DCProcDelayPerGB: 0.4,
		CLProcDelayPerGB: 1.0,
		Seed:             1,
	}
}

// ScaledConfig returns a configuration whose total compute-node count
// (|V| = |DC| + |CL|) equals n, preserving the paper's 6:24 DC:cloudlet mix.
// The paper's network-size sweeps (Figs 2 and 3) vary |V| from tens to 200.
func ScaledConfig(n int, seed int64) Config {
	if n < 2 {
		panic(fmt.Sprintf("topology: network size %d too small", n))
	}
	c := DefaultConfig()
	dcs := n / 5 // 6 of 30 compute nodes in the default mix
	if dcs < 1 {
		dcs = 1
	}
	c.DataCenters = dcs
	c.Cloudlets = n - dcs
	c.Switches = max(2, n/15)
	c.Seed = seed
	return c
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.DataCenters < 1:
		return fmt.Errorf("topology: need at least one data center, got %d", c.DataCenters)
	case c.Cloudlets < 1:
		return fmt.Errorf("topology: need at least one cloudlet, got %d", c.Cloudlets)
	case c.Switches < 0 || c.BaseStations < 0:
		return fmt.Errorf("topology: negative switch/base-station count")
	case c.EdgeProb < 0 || c.EdgeProb > 1 || math.IsNaN(c.EdgeProb):
		return fmt.Errorf("topology: edge probability %v outside [0,1]", c.EdgeProb)
	case c.DCCapMin <= 0 || c.DCCapMax < c.DCCapMin:
		return fmt.Errorf("topology: bad DC capacity range [%v,%v]", c.DCCapMin, c.DCCapMax)
	case c.CLCapMin <= 0 || c.CLCapMax < c.CLCapMin:
		return fmt.Errorf("topology: bad cloudlet capacity range [%v,%v]", c.CLCapMin, c.CLCapMax)
	case c.LinkDelayMin <= 0 || c.LinkDelayMax < c.LinkDelayMin:
		return fmt.Errorf("topology: bad link delay range [%v,%v]", c.LinkDelayMin, c.LinkDelayMax)
	case c.WANDelayFactor < 1:
		return fmt.Errorf("topology: WAN delay factor %v < 1", c.WANDelayFactor)
	case c.DCProcDelayPerGB <= 0 || c.CLProcDelayPerGB <= 0:
		return fmt.Errorf("topology: non-positive processing delay")
	}
	return nil
}

// regions used to label nodes for the testbed emulation; the paper's testbed
// spans San Francisco, New York, Toronto, and Singapore (§4.3).
var regions = []string{"san-francisco", "new-york", "toronto", "singapore"}

// Generate builds a two-tier edge cloud from the configuration. The layout:
// IDs [0,DC) are data centers, [DC,DC+CL) cloudlets, then switches, then
// base stations. Cloudlets and switches form the WMAN; data centers attach to
// gateway switches (or directly to cloudlets when there are no switches)
// through WAN links. On top of the structural spine, every node pair is
// additionally linked with probability EdgeProb, the paper's GT-ITM setting.
func Generate(c Config) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	total := c.DataCenters + c.Cloudlets + c.Switches + c.BaseStations
	g := graph.New(total)
	nodes := make([]Node, total)
	var compute []graph.NodeID

	uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	linkDelay := func() float64 { return uniform(c.LinkDelayMin, c.LinkDelayMax) }
	wanDelay := func() float64 { return linkDelay() * c.WANDelayFactor }

	id := 0
	for i := 0; i < c.DataCenters; i++ {
		nodes[id] = Node{
			ID:             graph.NodeID(id),
			Kind:           DataCenter,
			CapacityGHz:    uniform(c.DCCapMin, c.DCCapMax),
			ProcDelayPerGB: c.DCProcDelayPerGB,
			Region:         regions[i%len(regions)],
		}
		compute = append(compute, graph.NodeID(id))
		id++
	}
	for i := 0; i < c.Cloudlets; i++ {
		nodes[id] = Node{
			ID:             graph.NodeID(id),
			Kind:           Cloudlet,
			CapacityGHz:    uniform(c.CLCapMin, c.CLCapMax),
			ProcDelayPerGB: c.CLProcDelayPerGB,
			Region:         "metro",
		}
		compute = append(compute, graph.NodeID(id))
		id++
	}
	switchStart := id
	for i := 0; i < c.Switches; i++ {
		nodes[id] = Node{ID: graph.NodeID(id), Kind: Switch, Region: "metro"}
		id++
	}
	for i := 0; i < c.BaseStations; i++ {
		nodes[id] = Node{ID: graph.NodeID(id), Kind: BaseStation, Region: "metro"}
		id++
	}

	// Structural spine. Cloudlets chain through the metro network and
	// attach to switches; data centers reach the WMAN via gateway switches
	// over WAN links; base stations attach to random cloudlets.
	clStart := c.DataCenters
	for i := 1; i < c.Cloudlets; i++ {
		g.AddEdge(graph.NodeID(clStart+i-1), graph.NodeID(clStart+i), linkDelay())
	}
	for i := 0; i < c.Switches; i++ {
		cl := clStart + rng.Intn(c.Cloudlets)
		g.AddEdge(graph.NodeID(switchStart+i), graph.NodeID(cl), linkDelay())
	}
	for i := 0; i < c.DataCenters; i++ {
		var gw graph.NodeID
		if c.Switches > 0 {
			gw = graph.NodeID(switchStart + rng.Intn(c.Switches))
		} else {
			gw = graph.NodeID(clStart + rng.Intn(c.Cloudlets))
		}
		g.AddEdge(graph.NodeID(i), gw, wanDelay())
	}
	bsStart := switchStart + c.Switches
	for i := 0; i < c.BaseStations; i++ {
		cl := clStart + rng.Intn(c.Cloudlets)
		g.AddEdge(graph.NodeID(bsStart+i), graph.NodeID(cl), linkDelay())
	}

	// GT-ITM random links with iid probability EdgeProb (paper §4.1); a pair
	// the spine already links draws nothing. linked marks u's neighbours
	// while its row is drawn — g.HasEdge per pair would rescan u's growing
	// adjacency — and the links the row itself adds go to nodes it has passed.
	linked := make([]bool, total)
	for u := 0; u < total; u++ {
		g.Neighbors(graph.NodeID(u), func(v graph.NodeID, _ float64) { linked[v] = true })
		for v := u + 1; v < total; v++ {
			if linked[v] {
				continue
			}
			if rng.Float64() < c.EdgeProb {
				d := linkDelay()
				if nodes[u].Kind == DataCenter || nodes[v].Kind == DataCenter {
					d *= c.WANDelayFactor
				}
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), d)
			}
		}
		g.Neighbors(graph.NodeID(u), func(v graph.NodeID, _ float64) { linked[v] = false })
	}

	g.Connect(c.LinkDelayMax * c.WANDelayFactor)

	return &Topology{
		Graph:        g,
		Nodes:        nodes,
		ComputeNodes: compute,
	}, nil
}

// MustGenerate is Generate panicking on configuration errors; for tests and
// examples with known-good configs.
func MustGenerate(c Config) *Topology {
	t, err := Generate(c)
	if err != nil {
		panic(err)
	}
	return t
}

// Node returns the node record for id.
func (t *Topology) Node(id graph.NodeID) Node { return t.Nodes[id] }

// NumCompute returns |V| = |CL ∪ DC|.
func (t *Topology) NumCompute() int { return len(t.ComputeNodes) }

// Describe returns a human-readable inventory resembling the paper's Fig. 1.
func (t *Topology) Describe() string {
	counts := map[NodeKind]int{}
	for _, n := range t.Nodes {
		counts[n.Kind]++
	}
	return fmt.Sprintf(
		"two-tier edge cloud: %d data centers, %d cloudlets, %d switches, %d base stations, %d links",
		counts[DataCenter], counts[Cloudlet], counts[Switch], counts[BaseStation], t.Graph.NumEdges())
}
