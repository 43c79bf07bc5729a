// Package cluster is the read-only resource view of a two-tier edge cloud
// that placement algorithms and validators consult: computing capacity B(v)
// per compute node, per-unit processing delays d(v), and the per-GB
// transmission delay dt(p_{u,v}) between nodes. Each algorithm tracks the
// capacity it has used itself.
package cluster

import (
	"fmt"

	"edgerep/internal/graph"
	"edgerep/internal/topology"
)

// EdgeCloud is the resource view over an immutable topology.
type EdgeCloud struct {
	top *topology.Topology
}

// New builds an EdgeCloud over top.
func New(top *topology.Topology) *EdgeCloud {
	return &EdgeCloud{top: top}
}

// Topology returns the underlying immutable topology.
func (ec *EdgeCloud) Topology() *topology.Topology { return ec.top }

// ComputeNodes returns the IDs of V = CL ∪ DC in ascending order.
func (ec *EdgeCloud) ComputeNodes() []graph.NodeID { return ec.top.ComputeNodes }

// Capacity returns B(v). It panics for non-compute nodes, which indicates a
// caller bug (switches and base stations cannot evaluate queries).
func (ec *EdgeCloud) Capacity(v graph.NodeID) float64 {
	ec.mustCompute(v)
	return ec.top.Node(v).CapacityGHz
}

// ProcDelayPerGB returns d(v): seconds per GB per unit computing resource.
func (ec *EdgeCloud) ProcDelayPerGB(v graph.NodeID) float64 {
	ec.mustCompute(v)
	return ec.top.Node(v).ProcDelayPerGB
}

// DelayTo returns dt(p_{v,target}) along the shortest path for every node v,
// indexed by node (topology.Topology.DelayTo).
func (ec *EdgeCloud) DelayTo(target graph.NodeID) []float64 {
	return ec.top.DelayTo(target)
}

// DelayFrom returns dt(p_{source,v}) along the shortest path for every node
// v, indexed by node (topology.Topology.DelayFrom).
func (ec *EdgeCloud) DelayFrom(source graph.NodeID) []float64 {
	return ec.top.DelayFrom(source)
}

func (ec *EdgeCloud) mustCompute(v graph.NodeID) {
	if v >= 0 && int(v) < len(ec.top.Nodes) {
		if k := ec.top.Nodes[v].Kind; k == topology.DataCenter || k == topology.Cloudlet {
			return
		}
	}
	panic(fmt.Sprintf("cluster: node %d is not a compute node", v))
}
