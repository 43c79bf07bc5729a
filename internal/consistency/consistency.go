// Package consistency implements the paper's dynamic-data rule (§2.4): each
// dataset's replicas are kept consistent by threshold-triggered update
// propagation — "we set a threshold, which is a ratio of the volume of new
// generated data to the volume of original data at a time point. When the
// ratio of the volume of new generated data achieves the threshold, an
// update operation is made between the original data and its replicas to
// keep data consistent in the whole network."
//
// The manager tracks appended volume per dataset, fires synchronizations
// when the ratio crosses the threshold, and accounts the propagation cost
// (GB transferred over shortest paths from the origin to every replica),
// which is exactly the consistency-maintenance cost the paper cites as the
// reason to bound replicas by K.
package consistency

import (
	"fmt"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// SyncEvent records one propagation of accumulated updates to all replicas.
type SyncEvent struct {
	Dataset workload.DatasetID
	// VolumeGB is the update volume pushed to each replica.
	VolumeGB float64
	// Replicas receiving the update (origin excluded).
	Replicas []graph.NodeID
	// CostGBSec is Σ over replicas of VolumeGB · dt(origin → replica):
	// the transfer-delay-weighted propagation cost.
	CostGBSec float64
}

// Manager tracks per-dataset dirty volume against the threshold.
type Manager struct {
	top       *topology.Topology
	datasets  []workload.Dataset
	replicas  map[workload.DatasetID][]graph.NodeID
	threshold float64
	dirty     map[workload.DatasetID]float64
	synced    map[workload.DatasetID]float64 // volume already propagated
	events    []SyncEvent
}

// NewManager builds a Manager for the datasets and the replica layout of a
// solution. Threshold is the new-to-original volume ratio in (0, 1].
func NewManager(top *topology.Topology, datasets []workload.Dataset, sol *placement.Solution, threshold float64) (*Manager, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("consistency: threshold %v outside (0,1]", threshold)
	}
	m := &Manager{
		top:       top,
		datasets:  datasets,
		replicas:  make(map[workload.DatasetID][]graph.NodeID),
		threshold: threshold,
		dirty:     make(map[workload.DatasetID]float64),
	}
	for n, nodes := range sol.Replicas {
		m.replicas[n] = append([]graph.NodeID(nil), nodes...)
		sort.Slice(m.replicas[n], func(i, j int) bool { return m.replicas[n][i] < m.replicas[n][j] })
	}
	return m, nil
}

// DirtyRatio returns the current new-to-original volume ratio of dataset n.
func (m *Manager) DirtyRatio(n workload.DatasetID) float64 {
	if int(n) < 0 || int(n) >= len(m.datasets) {
		return 0
	}
	orig := m.datasets[n].SizeGB
	if orig <= 0 {
		return 0
	}
	return m.dirty[n] / orig
}

// Append records vol GB of newly generated data on dataset n and returns the
// sync events fired (zero or one; a single large append fires once with the
// whole accumulated volume).
func (m *Manager) Append(n workload.DatasetID, vol float64) ([]SyncEvent, error) {
	if int(n) < 0 || int(n) >= len(m.datasets) {
		return nil, fmt.Errorf("consistency: unknown dataset %d", n)
	}
	if vol < 0 {
		return nil, fmt.Errorf("consistency: negative append %v", vol)
	}
	m.dirty[n] += vol
	if m.DirtyRatio(n) < m.threshold {
		return nil, nil
	}
	ev := m.sync(n)
	if ev == nil {
		return nil, nil
	}
	return []SyncEvent{*ev}, nil
}

func (m *Manager) sync(n workload.DatasetID) *SyncEvent {
	vol := m.dirty[n]
	if vol <= 0 {
		return nil
	}
	origin := m.datasets[n].Origin
	fromOrigin := m.top.DelayFrom(origin)
	ev := SyncEvent{Dataset: n, VolumeGB: vol}
	for _, v := range m.replicas[n] {
		if v == origin {
			continue
		}
		ev.Replicas = append(ev.Replicas, v)
		ev.CostGBSec += vol * fromOrigin[v]
	}
	m.dirty[n] = 0
	m.events = append(m.events, ev)
	return &ev
}

// RetireReplica removes a crashed replica of dataset n at node v from the
// propagation set so future syncs stop pushing updates to it. No-op when no
// such replica is tracked.
func (m *Manager) RetireReplica(n workload.DatasetID, v graph.NodeID) {
	nodes := m.replicas[n]
	for i, node := range nodes {
		if node == v {
			m.replicas[n] = append(nodes[:i], nodes[i+1:]...)
			return
		}
	}
}

// ResyncReplica registers a repaired replica of dataset n at node v and
// accounts the full re-replication from the origin: the entire current
// dataset (original size plus unsynced dirty volume) crosses the network
// once, priced at dt(origin → v) like every other propagation. The returned
// event is also appended to Events/TotalCost — failover repair is exactly
// the consistency traffic the paper's K bound exists to limit.
func (m *Manager) ResyncReplica(n workload.DatasetID, v graph.NodeID) (SyncEvent, error) {
	if int(n) < 0 || int(n) >= len(m.datasets) {
		return SyncEvent{}, fmt.Errorf("consistency: unknown dataset %d", n)
	}
	for _, node := range m.replicas[n] {
		if node == v {
			return SyncEvent{}, fmt.Errorf("consistency: dataset %d already has a replica at %d", n, v)
		}
	}
	m.replicas[n] = append(m.replicas[n], v)
	sort.Slice(m.replicas[n], func(i, j int) bool { return m.replicas[n][i] < m.replicas[n][j] })
	vol := m.datasets[n].SizeGB + m.dirty[n]
	ev := SyncEvent{Dataset: n, VolumeGB: vol}
	origin := m.datasets[n].Origin
	if v != origin {
		ev.Replicas = []graph.NodeID{v}
		ev.CostGBSec = vol * m.top.DelayFrom(origin)[v]
	}
	m.events = append(m.events, ev)
	return ev, nil
}

// Events returns all sync events fired so far, in order.
func (m *Manager) Events() []SyncEvent { return m.events }

// TotalCost returns the accumulated propagation cost across all events.
func (m *Manager) TotalCost() float64 {
	c := 0.0
	for _, e := range m.events {
		c += e.CostGBSec
	}
	return c
}
