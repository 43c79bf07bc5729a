package testbed

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"edgerep/internal/analytics"
	"edgerep/internal/workload"
)

// fastLatency keeps tests quick: microsecond-scale injected delays.
func fastLatency() *LatencyModel {
	m := DefaultLatencyModel()
	m.Scale = 0.001
	return m
}

func smallCluster(t testing.TB) *Cluster {
	t.Helper()
	cfg := ClusterConfig{
		DataCenterRegions: []string{"san-francisco", "singapore"},
		Cloudlets:         3,
		Latency:           fastLatency(),
	}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func testTrace(t testing.TB, n int) []workload.UsageRecord {
	t.Helper()
	c := workload.DefaultTraceConfig()
	c.Records = n
	recs, err := workload.GenerateTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// nodeStats is what a node holds: its datasets, ascending, and their records.
type nodeStats struct {
	Datasets      []int
	RecordsStored int
}

// stats reads node i's replica store.
func (c *Cluster) stats(i int) nodeStats {
	n := c.Nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	var st nodeStats
	for ds, recs := range n.store {
		st.Datasets = append(st.Datasets, ds)
		st.RecordsStored += len(recs)
	}
	sort.Ints(st.Datasets)
	return st
}

// Ping checks liveness of node i over the wire.
func (c *Cluster) Ping(i int) error {
	n := c.Nodes[i]
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

func TestPingAllNodes(t *testing.T) {
	c := smallCluster(t)
	for i := 0; i < c.NumNodes(); i++ {
		if err := c.Ping(i); err != nil {
			t.Fatalf("ping node %d: %v", i, err)
		}
	}
}

func TestPlaceAndStats(t *testing.T) {
	c := smallCluster(t)
	recs := testTrace(t, 500)
	if err := c.Place(0, 7, recs); err != nil {
		t.Fatal(err)
	}
	st := c.stats(0)
	if st.RecordsStored != 500 {
		t.Fatalf("stored %d records, want 500", st.RecordsStored)
	}
	if len(st.Datasets) != 1 || st.Datasets[0] != 7 {
		t.Fatalf("datasets = %v, want [7]", st.Datasets)
	}
}

func TestEvaluateSingleDataset(t *testing.T) {
	c := smallCluster(t)
	recs := testTrace(t, 1000)
	if err := c.Place(2, 0, recs); err != nil {
		t.Fatal(err)
	}
	plan := QueryPlan{HomeIndex: 3, Query: analytics.Request{Kind: analytics.TopApps, K: 5}}
	plan.Targets = append(plan.Targets, struct {
		Dataset   int
		NodeIndex int
	}{Dataset: 0, NodeIndex: 2})
	ev, err := c.Evaluate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Result.TopApps) != 5 {
		t.Fatalf("got %d rows, want 5", len(ev.Result.TopApps))
	}
	if ev.Result.TotalRecords != 1000 {
		t.Fatalf("aggregated %d records, want 1000", ev.Result.TotalRecords)
	}
	if ev.Latency <= 0 {
		t.Fatal("non-positive measured latency")
	}
}

func TestEvaluateFanoutMatchesCentralized(t *testing.T) {
	c := smallCluster(t)
	recs := testTrace(t, 1200)
	parts, err := workload.PartitionTrace(recs, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := QueryPlan{HomeIndex: 0, Query: analytics.Request{Kind: analytics.DistinctUsers}}
	for i, part := range parts {
		if err := c.Place(i+1, i, part); err != nil {
			t.Fatal(err)
		}
		plan.Targets = append(plan.Targets, struct {
			Dataset   int
			NodeIndex int
		}{Dataset: i, NodeIndex: i + 1})
	}
	ev, err := c.Evaluate(plan)
	if err != nil {
		t.Fatal(err)
	}
	central, err := analytics.Aggregate(recs, plan.Query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := analytics.Finalize(central, plan.Query)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Result.DistinctUsers != want.DistinctUsers {
		t.Fatalf("distributed %d distinct users, centralized %d",
			ev.Result.DistinctUsers, want.DistinctUsers)
	}
}

func TestEvaluateMissingReplicaFails(t *testing.T) {
	c := smallCluster(t)
	plan := QueryPlan{HomeIndex: 0, Query: analytics.Request{Kind: analytics.HourlyHistogram}}
	plan.Targets = append(plan.Targets, struct {
		Dataset   int
		NodeIndex int
	}{Dataset: 99, NodeIndex: 1})
	_, err := c.Evaluate(plan)
	if err == nil || !strings.Contains(err.Error(), "no replica") {
		t.Fatalf("missing replica not surfaced: %v", err)
	}
}

func TestEvaluateEmptyFanoutFails(t *testing.T) {
	c := smallCluster(t)
	_, err := c.Evaluate(QueryPlan{HomeIndex: 0, Query: analytics.Request{Kind: analytics.DistinctUsers}})
	if err == nil {
		t.Fatal("empty fanout accepted")
	}
}

func TestEvaluateBadIndices(t *testing.T) {
	c := smallCluster(t)
	if _, err := c.Evaluate(QueryPlan{HomeIndex: 99}); err == nil {
		t.Fatal("bad home index accepted")
	}
	plan := QueryPlan{HomeIndex: 0, Query: analytics.Request{Kind: analytics.DistinctUsers}}
	plan.Targets = append(plan.Targets, struct {
		Dataset   int
		NodeIndex int
	}{Dataset: 0, NodeIndex: 42})
	if _, err := c.Evaluate(plan); err == nil {
		t.Fatal("bad target index accepted")
	}
}

func TestLatencyModelLookup(t *testing.T) {
	m := DefaultLatencyModel()
	sfNY := m.Delay("san-francisco", "new-york", 0)
	nySF := m.Delay("new-york", "san-francisco", 0)
	if sfNY != nySF {
		t.Fatalf("asymmetric lookup: %v vs %v", sfNY, nySF)
	}
	if intra := m.Delay("metro", "metro", 0); intra >= sfNY {
		t.Fatalf("intra delay %v not below WAN %v", intra, sfNY)
	}
	if unknown := m.Delay("mars", "venus", 0); unknown != time.Duration(float64(m.Default)*m.Scale) {
		t.Fatalf("unknown pair delay %v, want default %v", unknown, m.Default)
	}
	// Bandwidth term grows with size.
	small := m.Delay("san-francisco", "new-york", 1000)
	big := m.Delay("san-francisco", "new-york", 10_000_000)
	if big <= small {
		t.Fatalf("bandwidth term missing: %v vs %v", small, big)
	}
}

func TestLatencyModelValidate(t *testing.T) {
	m := DefaultLatencyModel()
	m.Scale = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative scale accepted")
	}
	m = DefaultLatencyModel()
	m.BytesPerSec = -5
	if err := m.Validate(); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

// Remote fanout must be measurably slower than local fanout — the core
// physical premise of edge computing that the whole paper rests on.
func TestRemoteSlowerThanLocal(t *testing.T) {
	cfg := ClusterConfig{
		DataCenterRegions: []string{"singapore"},
		Cloudlets:         2,
		Latency:           DefaultLatencyModel(), // full-scale latencies
	}
	cfg.Latency.Scale = 0.1 // keep the test fast but measurable
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	recs := testTrace(t, 400)
	if err := c.Place(0, 0, recs); err != nil { // dc-singapore
		t.Fatal(err)
	}
	if err := c.Place(1, 0, recs); err != nil { // cl-0 (metro)
		t.Fatal(err)
	}
	q := analytics.Request{Kind: analytics.TopApps, K: 3}
	mk := func(nodeIdx int) QueryPlan {
		plan := QueryPlan{HomeIndex: 2, Query: q} // home cl-1 (metro)
		plan.Targets = append(plan.Targets, struct {
			Dataset   int
			NodeIndex int
		}{Dataset: 0, NodeIndex: nodeIdx})
		return plan
	}
	evRemote, err := c.Evaluate(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	evLocal, err := c.Evaluate(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if evRemote.Latency <= evLocal.Latency {
		t.Fatalf("remote evaluation (%v) not slower than local (%v)",
			evRemote.Latency, evLocal.Latency)
	}
}

func TestCloseIdempotent(t *testing.T) {
	c := smallCluster(t)
	n := c.Node(0)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	c := smallCluster(t)
	s := c.Describe()
	if !strings.Contains(s, "5 nodes") {
		t.Fatalf("Describe() = %q", s)
	}
}

func BenchmarkEvaluateLocal(b *testing.B) {
	cfg := ClusterConfig{
		DataCenterRegions: []string{"san-francisco"},
		Cloudlets:         2,
		Latency:           fastLatency(),
	}
	c, err := StartCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	tc := workload.DefaultTraceConfig()
	tc.Records = 2000
	recs, err := workload.GenerateTrace(tc)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Place(1, 0, recs); err != nil {
		b.Fatal(err)
	}
	plan := QueryPlan{HomeIndex: 2, Query: analytics.Request{Kind: analytics.TopApps, K: 5}}
	plan.Targets = append(plan.Targets, struct {
		Dataset   int
		NodeIndex int
	}{Dataset: 0, NodeIndex: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Evaluate(plan); err != nil {
			b.Fatal(err)
		}
	}
}
