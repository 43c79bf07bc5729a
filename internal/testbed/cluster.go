package testbed

import (
	"fmt"
	"time"

	"edgerep/internal/analytics"
	"edgerep/internal/workload"
)

// Cluster is the controller's view of the emulated testbed: the full node
// set plus the latency model, mirroring the paper's controller that "executes
// the proposed algorithms" against the leased VMs (Fig. 6).
type Cluster struct {
	Nodes []*Node
	lat   *LatencyModel
	// ControllerRegion is where the controller sits; the paper uses a
	// local server ("metro").
	ControllerRegion string
}

// ClusterConfig sizes the emulated testbed. The paper's testbed uses 4
// data-center VMs (one per region) and 16 cloudlet VMs.
type ClusterConfig struct {
	DataCenterRegions []string
	Cloudlets         int
	Latency           *LatencyModel
}

// DefaultClusterConfig mirrors the paper's 20-VM layout.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		DataCenterRegions: []string{"san-francisco", "new-york", "toronto", "singapore"},
		Cloudlets:         16,
		Latency:           DefaultLatencyModel(),
	}
}

// StartCluster launches all nodes. Data-center nodes are named dc-<region>,
// cloudlets cl-<i> in the metro region.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Latency == nil {
		return nil, fmt.Errorf("testbed: nil latency model")
	}
	if len(cfg.DataCenterRegions) == 0 && cfg.Cloudlets == 0 {
		return nil, fmt.Errorf("testbed: empty cluster")
	}
	c := &Cluster{lat: cfg.Latency, ControllerRegion: "metro"}
	for _, region := range cfg.DataCenterRegions {
		n, err := StartNode("dc-"+region, region, cfg.Latency)
		if err != nil {
			_ = c.Close() // best-effort cleanup; the start error wins
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	for i := 0; i < cfg.Cloudlets; i++ {
		n, err := StartNode(fmt.Sprintf("cl-%d", i), "metro", cfg.Latency)
		if err != nil {
			_ = c.Close() // best-effort cleanup; the start error wins
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// Close shuts every node down, returning the first close error.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.Nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.Nodes) }

// Place stores a dataset replica on node i (controller → node, latency
// injected, real bytes on the wire).
func (c *Cluster) Place(i int, dataset int, recs []workload.UsageRecord) error {
	n := c.Nodes[i]
	req := &Request{Op: OpStore, Dataset: dataset, Records: recs, FromRegion: c.ControllerRegion}
	resp, err := call(c.lat, c.ControllerRegion, n.Region, n.Addr(), req)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("testbed: place dataset %d on %s: %s", dataset, n.Name, resp.Error)
	}
	return nil
}

// QueryPlan tells Evaluate where a query's home is and which replica serves
// each demanded dataset.
type QueryPlan struct {
	HomeIndex int
	Query     analytics.Request
	Targets   []struct {
		Dataset   int
		NodeIndex int
	}
}

// Evaluation is the measured outcome of one query execution.
type Evaluation struct {
	Result  *analytics.Result
	Latency time.Duration
}

// Evaluate executes a query end to end: the controller asks the home node,
// the home node fans out to the replicas, merges and finalizes. The measured
// latency excludes the controller→home hop (the paper measures from query
// issue at the home location, §2.3: "the transfer delay of the query from a
// user location to the edge cloud network is negligible" — we issue directly
// to the home node and time the evaluation).
func (c *Cluster) Evaluate(plan QueryPlan) (*Evaluation, error) {
	if plan.HomeIndex < 0 || plan.HomeIndex >= len(c.Nodes) {
		return nil, fmt.Errorf("testbed: home index %d out of range", plan.HomeIndex)
	}
	home := c.Nodes[plan.HomeIndex]
	req := &Request{Op: OpEvaluate, Query: plan.Query, FromRegion: home.Region}
	for _, t := range plan.Targets {
		if t.NodeIndex < 0 || t.NodeIndex >= len(c.Nodes) {
			return nil, fmt.Errorf("testbed: target index %d out of range", t.NodeIndex)
		}
		tn := c.Nodes[t.NodeIndex]
		req.Fanout = append(req.Fanout, FanoutTarget{Dataset: t.Dataset, Addr: tn.Addr(), Region: tn.Region})
	}
	start := time.Now()
	// FromRegion == home region: the issue hop is intra-node (negligible,
	// matching the paper's assumption).
	resp, err := call(c.lat, home.Region, home.Region, home.Addr(), req)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if !resp.OK {
		return nil, fmt.Errorf("testbed: evaluate: %s", resp.Error)
	}
	return &Evaluation{Result: resp.Result, Latency: elapsed}, nil
}

// Describe renders the cluster layout (the paper's Fig. 6 counterpart).
func (c *Cluster) Describe() string {
	regions := map[string]int{}
	for _, n := range c.Nodes {
		regions[n.Region]++
	}
	return fmt.Sprintf("emulated testbed: %d nodes across %d regions (controller in %s)",
		len(c.Nodes), len(regions), c.ControllerRegion)
}
