// Package placement defines the proactive data replication and placement
// problem of the paper and the common solution representation shared by the
// primal-dual algorithm, the baselines, and the exact ILP: which datasets get
// replicas on which nodes, which admitted query reads which dataset from
// which replica, and the objective — the total volume of datasets demanded by
// admitted queries.
package placement

import (
	"fmt"
	"math"
	"slices"

	"edgerep/internal/cluster"
	"edgerep/internal/graph"
	"edgerep/internal/workload"
)

// Problem is one instance of the proactive data replication and placement
// problem (paper §2.4).
type Problem struct {
	Cloud    *cluster.EdgeCloud
	Datasets []workload.Dataset
	Queries  []workload.Query
	// MaxReplicas is K ≥ 1, the per-dataset replica bound.
	MaxReplicas int
}

// NewProblem assembles a Problem and validates its shape.
func NewProblem(ec *cluster.EdgeCloud, w *workload.Workload, k int) (*Problem, error) {
	if k < 1 {
		return nil, fmt.Errorf("placement: K = %d, need K ≥ 1", k)
	}
	if len(w.Datasets) == 0 {
		return nil, fmt.Errorf("placement: no datasets")
	}
	for _, q := range w.Queries {
		if len(q.Demands) == 0 {
			return nil, fmt.Errorf("placement: query %d demands nothing", q.ID)
		}
		for _, d := range q.Demands {
			if int(d.Dataset) < 0 || int(d.Dataset) >= len(w.Datasets) {
				return nil, fmt.Errorf("placement: query %d demands unknown dataset %d", q.ID, d.Dataset)
			}
		}
	}
	return &Problem{Cloud: ec, Datasets: w.Datasets, Queries: w.Queries, MaxReplicas: k}, nil
}

// Demand returns the Demand entry of query q for dataset n, and whether the
// query demands that dataset at all.
func (p *Problem) Demand(q workload.QueryID, n workload.DatasetID) (workload.Demand, bool) {
	for _, d := range p.Queries[q].Demands {
		if d.Dataset == n {
			return d, true
		}
	}
	return workload.Demand{}, false
}

// EvalDelay returns the delay of evaluating dataset n for query q at node v:
// |S_n|·d(v) + |S_n|·α_nm·dt(p_{v,h_m}) (paper §2.3). The second return is
// false when q does not demand n.
func (p *Problem) EvalDelay(q workload.QueryID, n workload.DatasetID, v graph.NodeID) (float64, bool) {
	d, ok := p.Demand(q, n)
	if !ok {
		return 0, false
	}
	return evalDelay(p.Datasets[n].SizeGB, d.Selectivity,
		p.Cloud.ProcDelayPerGB(v), p.Cloud.TransferDelayPerGB(v, p.Queries[q].Home)), true
}

// evalDelay is the delay model's arithmetic. Everything that prices a delay
// goes through it, so a table built off DemandDelays holds EvalDelay's bits.
func evalDelay(size, selectivity, procPerGB, transferPerGB float64) float64 {
	proc := size * procPerGB
	trans := size * selectivity * transferPerGB
	return proc + trans
}

// DemandDelays is EvalDelay for one (query, dataset) pair with everything but
// the node hoisted — the demand scan, the dataset size, the home's row of the
// delay matrix, the compute-node check — for builders that price the pair at
// every compute node (the ascent's candidate lists, the engine's tables).
type DemandDelays struct {
	size, selectivity float64
	home              graph.NodeID
	transfer          *graph.DistanceMatrix
	nodes             []graph.NodeID
	procDelay         []float64
}

// DemandDelays prepares the delays of dataset n for query q, which must demand
// it. procDelay[i] is d(v) of the i-th compute node, in ComputeNodes order.
func (p *Problem) DemandDelays(q workload.QueryID, n workload.DatasetID, procDelay []float64) DemandDelays {
	d, _ := p.Demand(q, n) // the demand EvalDelay prices n by
	return DemandDelays{
		size:        p.Datasets[n].SizeGB,
		selectivity: d.Selectivity,
		home:        p.Queries[q].Home,
		transfer:    p.Cloud.Topology().Delays,
		nodes:       p.Cloud.ComputeNodes(),
		procDelay:   procDelay,
	}
}

// At returns the delay at the i-th compute node: EvalDelay's value, bit for
// bit.
func (d *DemandDelays) At(i int) float64 {
	return evalDelay(d.size, d.selectivity, d.procDelay[i], d.transfer.Between(d.nodes[i], d.home))
}

// ComputeNeed returns |S_n|·r_m: the computing resource consumed on the node
// evaluating dataset n for query q.
func (p *Problem) ComputeNeed(q workload.QueryID, n workload.DatasetID) float64 {
	return p.Datasets[n].SizeGB * p.Queries[q].ComputePerGB
}

// MeetsDeadline reports whether serving dataset n of query q from node v
// satisfies the query's QoS requirement (constraint (4)).
func (p *Problem) MeetsDeadline(q workload.QueryID, n workload.DatasetID, v graph.NodeID) bool {
	delay, ok := p.EvalDelay(q, n, v)
	return ok && delay <= p.Queries[q].DeadlineSec+1e-12
}

// Assignment records that admitted query Query reads dataset Dataset from
// the replica on Node.
type Assignment struct {
	Query   workload.QueryID
	Dataset workload.DatasetID
	Node    graph.NodeID
}

// Solution is the output of any placement algorithm.
type Solution struct {
	// Replicas maps each dataset to the nodes holding a replica
	// (ascending, at most K).
	Replicas map[workload.DatasetID][]graph.NodeID
	// Assignments lists one entry per (admitted query, demanded dataset), in
	// admission order.
	Assignments []Assignment
	// admitted is the multiset of admitted queries: query → how many times
	// it is admitted. The offline algorithms admit a query at most once; the
	// online engine admits the same query ID on every arrival that names it.
	// Counts, not a sorted list, so that Admit does no work proportional to
	// what was admitted before it; Admitted enumerates them in order.
	admitted    map[workload.QueryID]int
	numAdmitted int
}

// NewSolution returns an empty solution ready for incremental construction.
func NewSolution() *Solution {
	return &Solution{
		Replicas: make(map[workload.DatasetID][]graph.NodeID),
		admitted: make(map[workload.QueryID]int),
	}
}

// HasReplica reports whether dataset n has a replica at node v.
func (s *Solution) HasReplica(n workload.DatasetID, v graph.NodeID) bool {
	for _, node := range s.Replicas[n] {
		if node == v {
			return true
		}
	}
	return false
}

// AddReplica records a replica of dataset n at node v; it is a no-op when the
// replica already exists. Nodes are kept sorted.
func (s *Solution) AddReplica(n workload.DatasetID, v graph.NodeID) {
	nodes := s.Replicas[n]
	if i, found := slices.BinarySearch(nodes, v); !found {
		s.Replicas[n] = slices.Insert(nodes, i, v)
	}
}

// RemoveReplica drops the replica of dataset n at node v (a crashed node's
// replicas are lost); it is a no-op when no such replica exists.
func (s *Solution) RemoveReplica(n workload.DatasetID, v graph.NodeID) {
	nodes := s.Replicas[n]
	for i, node := range nodes {
		if node == v {
			s.Replicas[n] = append(nodes[:i], nodes[i+1:]...)
			if len(s.Replicas[n]) == 0 {
				delete(s.Replicas, n)
			}
			return
		}
	}
}

// ReplicaCount returns the number of replicas of dataset n.
func (s *Solution) ReplicaCount(n workload.DatasetID) int { return len(s.Replicas[n]) }

// Admit records query q as admitted with the given per-dataset assignments.
// Its cost does not depend on how many queries were admitted before.
func (s *Solution) Admit(q workload.QueryID, assignments []Assignment) {
	s.admitted[q]++
	s.numAdmitted++
	s.Assignments = append(s.Assignments, assignments...)
}

// Admitted returns the admitted queries in ascending ID order, a query
// admitted k times appearing k times. The slice is the caller's.
func (s *Solution) Admitted() []workload.QueryID {
	if s.numAdmitted == 0 {
		return nil
	}
	distinct := make([]workload.QueryID, 0, len(s.admitted))
	for q := range s.admitted {
		distinct = append(distinct, q)
	}
	slices.Sort(distinct)
	out := make([]workload.QueryID, 0, s.numAdmitted)
	for _, q := range distinct {
		for c := s.admitted[q]; c > 0; c-- {
			out = append(out, q)
		}
	}
	return out
}

// Unadmit evicts query q from the solution — one admission of it and every
// one of its assignments are removed (failover gives back the volume of
// queries a crash stranded). No-op when q is not admitted.
func (s *Solution) Unadmit(q workload.QueryID) {
	if s.admitted[q] == 0 {
		return
	}
	if s.admitted[q]--; s.admitted[q] == 0 {
		delete(s.admitted, q)
	}
	s.numAdmitted--
	s.Assignments = slices.DeleteFunc(s.Assignments, func(a Assignment) bool { return a.Query == q })
}

// Reassign points, for each move in order, the first assignment of
// move.Query for move.Dataset at move.Node (failover repair), in one pass
// over Assignments however many moves there are. It returns how many
// distinct (query, dataset) pairs among the moves had an assignment.
func (s *Solution) Reassign(moves ...Assignment) int {
	type pair struct {
		q workload.QueryID
		n workload.DatasetID
	}
	// Every move for a pair lands on the same first match, so the last wins.
	target := make(map[pair]graph.NodeID, len(moves))
	for _, m := range moves {
		target[pair{m.Query, m.Dataset}] = m.Node
	}
	pairs := len(target)
	for i := 0; i < len(s.Assignments) && len(target) > 0; i++ {
		a := &s.Assignments[i]
		if v, ok := target[pair{a.Query, a.Dataset}]; ok {
			a.Node = v
			delete(target, pair{a.Query, a.Dataset})
		}
	}
	return pairs - len(target)
}

// IsAdmitted reports whether query q was admitted.
func (s *Solution) IsAdmitted(q workload.QueryID) bool { return s.admitted[q] > 0 }

// Volume returns the paper's objective (1): the total volume of datasets
// demanded by admitted queries.
func (s *Solution) Volume(p *Problem) float64 {
	v := 0.0
	for _, q := range s.Admitted() {
		v += p.Queries[q].DemandedVolume(p.Datasets)
	}
	return v
}

// Throughput returns the system throughput: admitted queries over all
// queries (paper §4.2).
func (s *Solution) Throughput(p *Problem) float64 {
	if len(p.Queries) == 0 {
		return 0
	}
	return float64(s.numAdmitted) / float64(len(p.Queries))
}

// TotalReplicas returns the number of replicas placed across all datasets.
func (s *Solution) TotalReplicas() int {
	n := 0
	for _, nodes := range s.Replicas {
		n += len(nodes)
	}
	return n
}

// Validate checks every constraint of the paper's ILP against a fresh copy
// of the problem's resources:
//
//	(2) per-node computing capacity,
//	(3) queries only assigned to nodes holding the demanded replica,
//	(4) every admitted query's deadline met on every demanded dataset,
//	(5) at most K replicas per dataset,
//
// plus structural invariants (every admitted query has exactly one assignment
// per demanded dataset, no assignments for non-admitted queries). It returns
// the first violation found, or nil.
func (s *Solution) Validate(p *Problem) error {
	// (5) replica bound and replica node sanity.
	computeSet := make(map[graph.NodeID]bool, len(p.Cloud.ComputeNodes()))
	for _, v := range p.Cloud.ComputeNodes() {
		computeSet[v] = true
	}
	for n, nodes := range s.Replicas {
		if len(nodes) > p.MaxReplicas {
			return fmt.Errorf("placement: dataset %d has %d replicas, K = %d", n, len(nodes), p.MaxReplicas)
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range nodes {
			if !computeSet[v] {
				return fmt.Errorf("placement: dataset %d replica on non-compute node %d", n, v)
			}
			if seen[v] {
				return fmt.Errorf("placement: dataset %d has duplicate replica on node %d", n, v)
			}
			seen[v] = true
		}
	}

	// Assignments indexed per query.
	perQuery := make(map[workload.QueryID]map[workload.DatasetID]graph.NodeID)
	for _, a := range s.Assignments {
		if int(a.Query) < 0 || int(a.Query) >= len(p.Queries) {
			return fmt.Errorf("placement: assignment references unknown query %d", a.Query)
		}
		m := perQuery[a.Query]
		if m == nil {
			m = make(map[workload.DatasetID]graph.NodeID)
			perQuery[a.Query] = m
		}
		if _, dup := m[a.Dataset]; dup {
			return fmt.Errorf("placement: query %d has two assignments for dataset %d", a.Query, a.Dataset)
		}
		m[a.Dataset] = a.Node
	}

	for q := range perQuery {
		if !s.IsAdmitted(q) {
			return fmt.Errorf("placement: assignments exist for non-admitted query %d", q)
		}
	}

	// Per-node load for constraint (2).
	load := make(map[graph.NodeID]float64)

	for _, q := range s.Admitted() {
		if int(q) < 0 || int(q) >= len(p.Queries) {
			return fmt.Errorf("placement: admitted unknown query %d", q)
		}
		m := perQuery[q]
		if len(m) != len(p.Queries[q].Demands) {
			return fmt.Errorf("placement: query %d admitted with %d of %d demanded datasets assigned",
				q, len(m), len(p.Queries[q].Demands))
		}
		for _, d := range p.Queries[q].Demands {
			v, ok := m[d.Dataset]
			if !ok {
				return fmt.Errorf("placement: query %d missing assignment for dataset %d", q, d.Dataset)
			}
			// (3) replica must exist at the serving node.
			if !s.HasReplica(d.Dataset, v) {
				return fmt.Errorf("placement: query %d served dataset %d from node %d without a replica",
					q, d.Dataset, v)
			}
			// (4) deadline.
			if !p.MeetsDeadline(q, d.Dataset, v) {
				delay, _ := p.EvalDelay(q, d.Dataset, v)
				return fmt.Errorf("placement: query %d dataset %d at node %d delay %.3fs exceeds deadline %.3fs",
					q, d.Dataset, v, delay, p.Queries[q].DeadlineSec)
			}
			load[v] += p.ComputeNeed(q, d.Dataset)
		}
	}

	// (2) capacity.
	for v, used := range load {
		if cap := p.Cloud.Capacity(v); used > cap+1e-6 {
			return fmt.Errorf("placement: node %d loaded %.3f GHz over capacity %.3f", v, used, cap)
		}
	}
	return nil
}

// ApplyLoad charges every assignment's computing demand to a fresh EdgeCloud
// derived from the problem and returns per-node loads. Useful for reporting.
func (s *Solution) ApplyLoad(p *Problem) map[graph.NodeID]float64 {
	load := make(map[graph.NodeID]float64)
	for _, a := range s.Assignments {
		load[a.Node] += p.ComputeNeed(a.Query, a.Dataset)
	}
	return load
}

// MaxUtilization returns the highest node utilization induced by the
// solution's assignments.
func (s *Solution) MaxUtilization(p *Problem) float64 {
	maxU := 0.0
	for v, used := range s.ApplyLoad(p) {
		if cap := p.Cloud.Capacity(v); cap > 0 {
			if u := used / cap; u > maxU {
				maxU = u
			}
		}
	}
	return maxU
}

// UpperBoundVolume returns a trivial upper bound on the objective: the total
// demanded volume of all queries, capped by nothing else. Exact optima are
// computed by internal/ilp; this bound is used for sanity checks and
// normalized reporting.
func (p *Problem) UpperBoundVolume() float64 {
	v := 0.0
	for i := range p.Queries {
		v += p.Queries[i].DemandedVolume(p.Datasets)
	}
	return v
}

// FeasibleNodes returns the compute nodes from which dataset n can serve
// query q within its deadline, ignoring capacity, in ascending order.
func (p *Problem) FeasibleNodes(q workload.QueryID, n workload.DatasetID) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range p.Cloud.ComputeNodes() {
		if p.MeetsDeadline(q, n, v) {
			out = append(out, v)
		}
	}
	return out
}

// Stats summarizes a solution for reporting.
type Stats struct {
	Volume        float64
	Throughput    float64
	Admitted      int
	TotalQueries  int
	TotalReplicas int
	MaxUtil       float64
}

// Summarize computes Stats for a solution.
func (s *Solution) Summarize(p *Problem) Stats {
	return Stats{
		Volume:        s.Volume(p),
		Throughput:    s.Throughput(p),
		Admitted:      s.numAdmitted,
		TotalQueries:  len(p.Queries),
		TotalReplicas: s.TotalReplicas(),
		MaxUtil:       s.MaxUtilization(p),
	}
}

// String renders Stats compactly.
func (st Stats) String() string {
	return fmt.Sprintf("volume=%.1fGB throughput=%.1f%% admitted=%d/%d replicas=%d maxutil=%.0f%%",
		st.Volume, 100*st.Throughput, st.Admitted, st.TotalQueries, st.TotalReplicas,
		100*math.Min(st.MaxUtil, 9.99))
}
