// Package baselines implements the three benchmark algorithms the paper
// evaluates against (§4.1, §4.3):
//
//   - Greedy-S / Greedy-G: place replicas on the node with the largest
//     available computing resource, falling back to the next-largest until
//     the query is admitted or K replicas exist.
//   - Graph-S / Graph-G: the Golab et al. [10]-style placement that
//     partitions the network and pins replicas at partition medoids, then
//     assigns queries to the nearest feasible replica.
//   - Popularity-S / Popularity-G: the Hou et al. [13]-style caching that
//     ranks nodes by replica popularity and places new replicas at the most
//     popular node satisfying the deadline.
//
// All baselines share the all-or-nothing admission semantics of the paper: a
// query counts only when every demanded dataset is served within its QoS.
package baselines

import (
	"fmt"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/partition"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// state tracks mutable capacity and replica bookkeeping shared by the
// baseline heuristics.
type state struct {
	p     *placement.Problem
	avail map[graph.NodeID]float64
	sol   *placement.Solution
	// algo and traceRun identify this run in emitted trace events (trace.go).
	algo     string
	traceRun int64
}

func newState(p *placement.Problem, algo string) *state {
	s := &state{
		p:     p,
		avail: make(map[graph.NodeID]float64),
		sol:   placement.NewSolution(),
	}
	for _, v := range p.Cloud.ComputeNodes() {
		s.avail[v] = p.Cloud.Capacity(v)
	}
	s.beginTrace(algo)
	return s
}

// pick is one tentative (demand → node) decision inside a bundle.
type pick struct {
	node graph.NodeID
	need float64
	open bool
}

// tryBundle attempts to serve every demand of query qi using choose to rank
// candidate nodes; it returns the picks or false. Tentative capacity and
// replica openings are tracked so one bundle cannot double-count resources.
func (s *state) tryBundle(qi int, choose func(q *workload.Query, dm workload.Demand, tentOpen map[graph.NodeID]bool, tentUse map[graph.NodeID]float64) (graph.NodeID, bool)) ([]pick, bool) {
	q := &s.p.Queries[qi]
	tentUse := make(map[graph.NodeID]float64)
	tentOpen := make(map[workload.DatasetID]map[graph.NodeID]bool)
	picks := make([]pick, 0, len(q.Demands))
	for _, dm := range q.Demands {
		open := tentOpen[dm.Dataset]
		if open == nil {
			open = make(map[graph.NodeID]bool)
			tentOpen[dm.Dataset] = open
		}
		v, ok := choose(q, dm, open, tentUse)
		if !ok {
			return nil, false
		}
		need := s.p.ComputeNeed(q.ID, dm.Dataset)
		opens := !s.sol.HasReplica(dm.Dataset, v) && !open[v]
		picks = append(picks, pick{node: v, need: need, open: opens})
		tentUse[v] += need
		if opens {
			open[v] = true
		}
	}
	return picks, true
}

// commit applies picks for query qi.
func (s *state) commit(qi int, picks []pick) {
	q := &s.p.Queries[qi]
	var as []placement.Assignment
	for i, pk := range picks {
		ds := q.Demands[i].Dataset
		s.avail[pk.node] -= pk.need
		if s.avail[pk.node] < 0 {
			s.avail[pk.node] = 0
		}
		s.sol.AddReplica(ds, pk.node)
		as = append(as, placement.Assignment{Query: q.ID, Dataset: ds, Node: pk.node})
	}
	s.sol.Admit(q.ID, as)
}

// replicaAllowed reports whether dataset n may be served from v given
// current and tentative replicas and the K bound.
func (s *state) replicaAllowed(n workload.DatasetID, v graph.NodeID, tentOpen map[graph.NodeID]bool) bool {
	if s.sol.HasReplica(n, v) || tentOpen[v] {
		return true
	}
	return s.sol.ReplicaCount(n)+len(tentOpen) < s.p.MaxReplicas
}

// fits reports whether node v can absorb need more GHz given tentative use.
func (s *state) fits(v graph.NodeID, need float64, tentUse map[graph.NodeID]float64) bool {
	return need <= s.avail[v]-tentUse[v]+1e-9
}

func requireSingle(p *placement.Problem, name string) error {
	for i := range p.Queries {
		if len(p.Queries[i].Demands) != 1 {
			return fmt.Errorf("baselines: %s requires single-dataset queries; query %d demands %d",
				name, p.Queries[i].ID, len(p.Queries[i].Demands))
		}
	}
	return nil
}

func finish(p *placement.Problem, s *state) (*placement.Solution, error) {
	s.endTrace()
	if err := s.sol.Validate(p); err != nil {
		return nil, fmt.Errorf("baselines: infeasible solution: %w", err)
	}
	return s.sol, nil
}

// GreedyG runs the capacity-greedy benchmark on general (multi-dataset)
// queries in ID order. Following the paper's description literally, the
// heuristic "selects a data center or cloudlet with largest available
// computing resource to place a replica of a dataset. If the delay
// requirement cannot be satisfied, it then selects [the] second largest ...
// This procedure continues until the query is admitted or there are already
// K replicas of the dataset in the system" — i.e. every failed probe still
// burns a replica slot on a large-capacity (often remote, hence
// deadline-infeasible) node. Once K slots are burnt, later queries can only
// use the existing replica set.
func GreedyG(p *placement.Problem) (*placement.Solution, error) {
	s := newState(p, "greedy-g")
	for qi := range p.Queries {
		picks, ok := s.tryBundle(qi, func(q *workload.Query, dm workload.Demand, tentOpen map[graph.NodeID]bool, tentUse map[graph.NodeID]float64) (graph.NodeID, bool) {
			need := p.ComputeNeed(q.ID, dm.Dataset)
			usable := func(v graph.NodeID) bool {
				return s.fits(v, need, tentUse) && p.MeetsDeadline(q.ID, dm.Dataset, v)
			}
			// Existing replicas (including this bundle's tentative
			// openings) are always fair game.
			for _, v := range s.sol.Replicas[dm.Dataset] {
				if usable(v) {
					return v, true
				}
			}
			for v := range tentOpen {
				if usable(v) {
					return v, true
				}
			}
			// Probe nodes by descending available compute, burning a
			// replica slot per probe.
			order := append([]graph.NodeID(nil), p.Cloud.ComputeNodes()...)
			sort.Slice(order, func(i, j int) bool {
				ai := s.avail[order[i]] - tentUse[order[i]]
				aj := s.avail[order[j]] - tentUse[order[j]]
				if ai != aj {
					return ai > aj
				}
				return order[i] < order[j]
			})
			for _, v := range order {
				if s.sol.ReplicaCount(dm.Dataset)+len(tentOpen) >= p.MaxReplicas {
					return 0, false // all K slots burnt
				}
				if s.sol.HasReplica(dm.Dataset, v) || tentOpen[v] {
					continue
				}
				// Burn the slot whether or not the probe satisfies
				// this query: the replica stays in the system.
				s.sol.AddReplica(dm.Dataset, v)
				s.emitReplica(dm.Dataset, v)
				if usable(v) {
					return v, true
				}
			}
			return 0, false
		})
		if ok {
			s.commit(qi, picks)
			s.emitAdmit(qi, picks)
		} else {
			s.emitReject(qi)
		}
	}
	return finish(p, s)
}

// GreedyS is GreedyG restricted to single-dataset queries (paper's special
// case).
func GreedyS(p *placement.Problem) (*placement.Solution, error) {
	if err := requireSingle(p, "Greedy-S"); err != nil {
		return nil, err
	}
	return GreedyG(p)
}

// GraphG runs the partitioning benchmark on general queries: the compute
// nodes are partitioned into K regions, each dataset pre-places one replica
// at each region medoid (up to K), and queries are then assigned to the
// feasible replica with the smallest evaluation delay.
func GraphG(p *placement.Problem) (*placement.Solution, error) {
	s := newState(p, "graph-g")
	nodes := p.Cloud.ComputeNodes()
	dmat := p.Cloud.Topology().Matrix()
	parts, err := partition.KWay(nodes, p.MaxReplicas, dmat)
	if err != nil {
		return nil, fmt.Errorf("baselines: Graph partitioning failed: %w", err)
	}
	// One replica of each dataset per partition (≤ K total): within each
	// part, pick the member satisfying the deadline of the most demands for
	// the dataset — the paper's Graph baseline places a replica "if the
	// delay requirement of the query can be satisfied by evaluating the
	// replica at the data center or the cloudlet" — breaking ties toward
	// the smaller total distance to demand homes (the Golab-style
	// communication-cost objective) and then toward higher capacity.
	type demandRef struct {
		q  workload.QueryID
		ds workload.DatasetID
	}
	demandsFor := make(map[workload.DatasetID][]demandRef)
	homes := make(map[workload.DatasetID][]graph.NodeID)
	for qi := range p.Queries {
		for _, dm := range p.Queries[qi].Demands {
			demandsFor[dm.Dataset] = append(demandsFor[dm.Dataset],
				demandRef{q: p.Queries[qi].ID, ds: dm.Dataset})
			homes[dm.Dataset] = append(homes[dm.Dataset], p.Queries[qi].Home)
		}
	}
	for n := range p.Datasets {
		ds := workload.DatasetID(n)
		for part := 0; part < parts.K; part++ {
			members := parts.Members(part)
			var best graph.NodeID = -1
			bestFeas, bestCost := -1, 0.0
			for _, v := range members {
				feas := 0
				for _, d := range demandsFor[ds] {
					if p.MeetsDeadline(d.q, ds, v) {
						feas++
					}
				}
				cost := 0.0
				for _, h := range homes[ds] {
					cost += dmat.Between(v, h)
				}
				switch {
				case best == -1,
					feas > bestFeas,
					feas == bestFeas && cost < bestCost,
					feas == bestFeas && cost == bestCost && p.Cloud.Capacity(v) > p.Cloud.Capacity(best):
					best, bestFeas, bestCost = v, feas, cost
				}
			}
			if best != -1 {
				s.sol.AddReplica(ds, best)
				s.emitReplica(ds, best)
			}
		}
	}
	for qi := range p.Queries {
		picks, ok := s.tryBundle(qi, func(q *workload.Query, dm workload.Demand, tentOpen map[graph.NodeID]bool, tentUse map[graph.NodeID]float64) (graph.NodeID, bool) {
			need := p.ComputeNeed(q.ID, dm.Dataset)
			var best graph.NodeID
			bestDelay, found := 0.0, false
			for _, v := range s.sol.Replicas[dm.Dataset] {
				if !s.fits(v, need, tentUse) || !p.MeetsDeadline(q.ID, dm.Dataset, v) {
					continue
				}
				delay, _ := p.EvalDelay(q.ID, dm.Dataset, v)
				if !found || delay < bestDelay || (delay == bestDelay && v < best) {
					best, bestDelay, found = v, delay, true
				}
			}
			return best, found
		})
		if ok {
			s.commit(qi, picks)
			s.emitAdmit(qi, picks)
		} else {
			s.emitReject(qi)
		}
	}
	return finish(p, s)
}

// GraphS is GraphG restricted to single-dataset queries.
func GraphS(p *placement.Problem) (*placement.Solution, error) {
	if err := requireSingle(p, "Graph-S"); err != nil {
		return nil, err
	}
	return GraphG(p)
}

// PopularityG runs the popularity-caching benchmark on general queries. Node
// popularity is the fraction of all replicas (dataset origins seed the
// counts) hosted on the node; each demand tries nodes from most to least
// popular, placing a replica at the first node meeting the deadline with
// capacity, up to K replicas per dataset.
func PopularityG(p *placement.Problem) (*placement.Solution, error) {
	s := newState(p, "popularity-g")
	popularity := make(map[graph.NodeID]int)
	for i := range p.Datasets {
		popularity[p.Datasets[i].Origin]++
	}
	for qi := range p.Queries {
		picks, ok := s.tryBundle(qi, func(q *workload.Query, dm workload.Demand, tentOpen map[graph.NodeID]bool, tentUse map[graph.NodeID]float64) (graph.NodeID, bool) {
			order := append([]graph.NodeID(nil), p.Cloud.ComputeNodes()...)
			sort.Slice(order, func(i, j int) bool {
				if popularity[order[i]] != popularity[order[j]] {
					return popularity[order[i]] > popularity[order[j]]
				}
				return order[i] < order[j]
			})
			need := p.ComputeNeed(q.ID, dm.Dataset)
			for _, v := range order {
				if !s.fits(v, need, tentUse) {
					continue
				}
				if !s.replicaAllowed(dm.Dataset, v, tentOpen) {
					continue
				}
				if !p.MeetsDeadline(q.ID, dm.Dataset, v) {
					continue
				}
				return v, true
			}
			return 0, false
		})
		if ok {
			before := s.sol.TotalReplicas()
			s.commit(qi, picks)
			s.emitAdmit(qi, picks)
			// New replicas raise their hosts' popularity.
			if s.sol.TotalReplicas() > before {
				for _, pk := range picks {
					if pk.open {
						popularity[pk.node]++
					}
				}
			}
		} else {
			s.emitReject(qi)
		}
	}
	return finish(p, s)
}

// PopularityS is PopularityG restricted to single-dataset queries.
func PopularityS(p *placement.Problem) (*placement.Solution, error) {
	if err := requireSingle(p, "Popularity-S"); err != nil {
		return nil, err
	}
	return PopularityG(p)
}
