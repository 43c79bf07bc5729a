package cluster

import (
	"math"
	"testing"

	"edgerep/internal/graph"
	"edgerep/internal/topology"
)

func newCloud(t testing.TB) *EdgeCloud {
	t.Helper()
	return New(topology.MustGenerate(topology.DefaultConfig()))
}

func TestCapacityIsTopologyCapacity(t *testing.T) {
	ec := newCloud(t)
	for _, v := range ec.ComputeNodes() {
		if got, want := ec.Capacity(v), ec.Topology().Node(v).CapacityGHz; got != want {
			t.Fatalf("node %d capacity %v, topology says %v", v, got, want)
		}
	}
}

func TestNonComputeNodePanics(t *testing.T) {
	top := topology.MustGenerate(topology.DefaultConfig())
	ec := New(top)
	// Node 30 is the first switch in the default layout.
	var sw graph.NodeID = -1
	for _, n := range top.Nodes {
		if n.Kind == topology.Switch {
			sw = n.ID
			break
		}
	}
	if sw == -1 {
		t.Fatal("no switch in default topology")
	}
	for _, v := range []graph.NodeID{sw, -1, graph.NodeID(len(top.Nodes))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Capacity(%d) did not panic", v)
				}
			}()
			ec.Capacity(v)
		}()
	}
}

func TestDelaysExposed(t *testing.T) {
	ec := newCloud(t)
	nodes := ec.ComputeNodes()
	if d := ec.ProcDelayPerGB(nodes[0]); d <= 0 {
		t.Fatalf("processing delay %v", d)
	}
	if d := ec.DelayTo(nodes[1])[nodes[0]]; d <= 0 || math.IsInf(d, 1) {
		t.Fatalf("transfer delay %v", d)
	}
	if d := ec.DelayFrom(nodes[0])[nodes[1]]; d <= 0 || math.IsInf(d, 1) {
		t.Fatalf("transfer delay from %v", d)
	}
	if d := ec.DelayTo(nodes[0])[nodes[0]]; d != 0 {
		t.Fatalf("self transfer delay %v", d)
	}
}
