package testbed

import (
	"context"
	"fmt"
	"sync"
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

	// nodeMu guards the Nodes slots against concurrent kill/restart by a
	// ChaosController; read paths take it shared. Code that does not run
	// chaos concurrently is unaffected.
	nodeMu sync.RWMutex
}

// node returns the i-th node under the shared lock.
func (c *Cluster) node(i int) *Node {
	c.nodeMu.RLock()
	defer c.nodeMu.RUnlock()
	return c.Nodes[i]
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
	c.nodeMu.RLock()
	defer c.nodeMu.RUnlock()
	var first error
	for _, n := range c.Nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.node(i) }

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.Nodes) }

// KillNode crashes node i: its listener closes, in-flight requests die, and
// its replicas are lost. ChaosController drives this; RestartNode revives
// the slot.
func (c *Cluster) KillNode(i int) error {
	if i < 0 || i >= len(c.Nodes) {
		return fmt.Errorf("testbed: kill index %d out of range", i)
	}
	return c.node(i).Close()
}

// RestartNode replaces a killed node i with a fresh (empty) one of the same
// name and region — a rebooted VM: new address, no replicas until the
// controller re-places them.
func (c *Cluster) RestartNode(i int) error {
	if i < 0 || i >= len(c.Nodes) {
		return fmt.Errorf("testbed: restart index %d out of range", i)
	}
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	old := c.Nodes[i]
	_ = old.Close() // idempotent; usually already killed
	n, err := StartNode(old.Name, old.Region, c.lat)
	if err != nil {
		return err
	}
	n.Retry = old.Retry // reboot keeps the node's retry schedule
	c.Nodes[i] = n
	return nil
}

// Place stores a dataset replica on node i (controller → node, latency
// injected, real bytes on the wire).
func (c *Cluster) Place(i int, dataset int, recs []workload.UsageRecord) error {
	n := c.node(i)
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
// each demanded dataset. AltIndexes lists fallback replica nodes per target,
// tried in order when the primary is down.
type QueryPlan struct {
	HomeIndex int
	Query     analytics.Request
	Targets   []struct {
		Dataset   int
		NodeIndex int
	}
	// AltIndexes[i] are the alternate node indexes for Targets[i];
	// optional, may be shorter than Targets.
	AltIndexes [][]int
	// DeadlineSec is the query's remaining deadline in model seconds; with
	// the latency scale applied it becomes the wall-clock retry budget of
	// the whole evaluation (0 = default call budget).
	DeadlineSec float64
	// LatencyScale converts DeadlineSec to wall time (0 = the model's
	// Scale semantics don't apply; the raw DeadlineSec is used).
	LatencyScale float64
	// AllowPartial accepts a degraded result computed from the reachable
	// replicas when some dataset's replicas are all down.
	AllowPartial bool
}

// budget returns the wall-clock budget of the plan in milliseconds
// (0 = default).
func (p QueryPlan) budgetMillis() int64 {
	if p.DeadlineSec <= 0 {
		return 0
	}
	scale := p.LatencyScale
	if scale <= 0 {
		scale = 1
	}
	return int64(p.DeadlineSec * scale * 1000)
}

// Evaluation is the measured outcome of one query execution.
type Evaluation struct {
	Result  *analytics.Result
	Latency time.Duration
	// Degraded marks a partial result (some datasets unreachable).
	Degraded bool
	// FailedDatasets lists the datasets missing from a degraded result.
	FailedDatasets []int
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
	home := c.node(plan.HomeIndex)
	req := &Request{
		Op:           OpEvaluate,
		Query:        plan.Query,
		FromRegion:   home.Region,
		BudgetMillis: plan.budgetMillis(),
		AllowPartial: plan.AllowPartial,
	}
	for i, t := range plan.Targets {
		if t.NodeIndex < 0 || t.NodeIndex >= len(c.Nodes) {
			return nil, fmt.Errorf("testbed: target index %d out of range", t.NodeIndex)
		}
		tn := c.node(t.NodeIndex)
		ft := FanoutTarget{
			Dataset: t.Dataset,
			Addr:    tn.Addr(),
			Region:  tn.Region,
		}
		if i < len(plan.AltIndexes) {
			for _, alt := range plan.AltIndexes[i] {
				if alt < 0 || alt >= len(c.Nodes) {
					return nil, fmt.Errorf("testbed: alternate index %d out of range", alt)
				}
				an := c.node(alt)
				ft.Alternates = append(ft.Alternates, Endpoint{Addr: an.Addr(), Region: an.Region})
			}
		}
		req.Fanout = append(req.Fanout, ft)
	}
	// The controller waits out the home node's whole retry budget plus
	// slack for the exchange itself.
	outer := defaultCallBudget
	if b := req.BudgetMillis; b > 0 {
		outer += time.Duration(b) * time.Millisecond
	}
	start := time.Now()
	// FromRegion == home region: the issue hop is intra-node (negligible,
	// matching the paper's assumption).
	resp, err := callCtx(context.Background(), c.lat, home.Region, home.Region, home.Addr(), req, outer)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if !resp.OK {
		return nil, fmt.Errorf("testbed: evaluate: %s", resp.Error)
	}
	return &Evaluation{
		Result:         resp.Result,
		Latency:        elapsed,
		Degraded:       resp.Degraded,
		FailedDatasets: resp.FailedDatasets,
	}, nil
}

// Ping checks liveness of node i.
func (c *Cluster) Ping(i int) error {
	n := c.node(i)
	resp, err := call(c.lat, c.ControllerRegion, n.Region, n.Addr(),
		&Request{Op: OpPing, FromRegion: c.ControllerRegion})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("testbed: ping %s: %s", n.Name, resp.Error)
	}
	return nil
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
