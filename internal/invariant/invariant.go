// Package invariant is the runtime counterpart of the static-analysis pass
// (internal/lint): an independent checker that validates any solution of the
// proactive replication and placement problem against the paper's
// feasibility conditions. It recomputes everything from first principles —
// delays from the cloud's delay primitives, loads by summation, the
// objective by summing dataset sizes over admitted queries — rather than
// reusing placement.Solution's own accessors, so a bug in the solution
// bookkeeping and a bug in an algorithm cannot cancel out.
//
// The checks encode the paper's ILP (§2.4, constraints (1)–(7)):
//
//	objective  recomputed total demanded volume of admitted queries must
//	           match both Solution.Volume and the value the caller reports
//	           (paper (1));
//	capacity   per-node computing load ≤ B(v) (paper (2));
//	replica    every assignment reads from a node holding the dataset's
//	           replica (paper (3));
//	deadline   max over a query's demanded datasets of the evaluation delay
//	           |S_n|·d(v) + |S_n|·α_nm·dt(p_{v,h_m}) ≤ d_qm (paper (4)),
//	           with disconnected (graph.Infinity) transfer delays failing
//	           outright;
//	k-bound    at most K replicas per dataset (paper (5));
//	structure  admissions sorted/unique, replica sets sorted/unique and on
//	           compute nodes, assignments exactly covering the demands of
//	           admitted queries — the determinism contract every algorithm
//	           and golden test relies on.
//
// The Appro-G, baseline, and online test paths call CheckSolution after
// every run; the placement fuzz test feeds it adversarial instances.
package invariant

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// Tolerances mirror the ones the algorithms themselves use: capacity checks
// allow the accumulation slack of placement.Solution.Validate, deadlines the
// epsilon of Problem.MeetsDeadline.
const (
	capEps      = 1e-6
	deadlineEps = 1e-12
	volumeEps   = 1e-9
)

// Violation is one broken feasibility or determinism contract.
type Violation struct {
	// Kind names the paper constraint or contract: "objective", "capacity",
	// "replica", "deadline", "k-bound", or "structure".
	Kind string
	Msg  string
}

func (v Violation) String() string { return v.Kind + ": " + v.Msg }

// Options tunes which constraints apply.
type Options struct {
	// IgnoreCapacity skips the per-node capacity check (paper (2)). The
	// online engine with finite hold times enforces capacity instant by
	// instant, so the offline sum-over-admissions bound does not apply to
	// its cumulative solution (see online.Engine.Solution).
	IgnoreCapacity bool
	// ReportedVolume, when non-NaN, must match the recomputed objective.
	ReportedVolume float64
}

// Check validates s against p and returns every violation found (nil when
// feasible). It never mutates p or s.
func Check(p *placement.Problem, s *placement.Solution, opt Options) []Violation {
	var out []Violation
	add := func(kind, format string, args ...interface{}) {
		out = append(out, Violation{Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}

	// Replica-set structure and the K bound (paper (5)).
	computeSet := make(map[graph.NodeID]bool)
	for _, v := range p.Cloud.ComputeNodes() {
		computeSet[v] = true
	}
	for n, nodes := range s.Replicas {
		if int(n) < 0 || int(n) >= len(p.Datasets) {
			add("structure", "replica set for unknown dataset %d", n)
			continue
		}
		if len(nodes) > p.MaxReplicas {
			add("k-bound", "dataset %d has %d replicas, K = %d", n, len(nodes), p.MaxReplicas)
		}
		for i, v := range nodes {
			if !computeSet[v] {
				add("structure", "dataset %d replica on non-compute node %d", n, v)
			}
			if i > 0 && nodes[i-1] >= v {
				add("structure", "dataset %d replica list not sorted/unique at index %d", n, i)
			}
		}
	}

	// Admission-list structure: unique and in range (Admitted() is ascending
	// by construction, so a repeat is adjacent).
	admittedList := s.Admitted()
	admitted := make(map[workload.QueryID]bool, len(admittedList))
	indexable := true // false once Admitted holds IDs Solution.Volume would panic on
	for i, q := range admittedList {
		if int(q) < 0 || int(q) >= len(p.Queries) {
			add("structure", "admitted unknown query %d", q)
			indexable = false
			continue
		}
		if i > 0 && admittedList[i-1] >= q {
			add("structure", "query %d admitted more than once (admitted list index %d)", q, i)
		}
		admitted[q] = true
	}

	// Assignments: one per (admitted query, demanded dataset), nothing else.
	perQuery := make(map[workload.QueryID]map[workload.DatasetID]graph.NodeID)
	for _, a := range s.Assignments {
		if int(a.Query) < 0 || int(a.Query) >= len(p.Queries) {
			add("structure", "assignment references unknown query %d", a.Query)
			continue
		}
		if !admitted[a.Query] {
			add("structure", "assignment for non-admitted query %d", a.Query)
			continue
		}
		m := perQuery[a.Query]
		if m == nil {
			m = make(map[workload.DatasetID]graph.NodeID)
			perQuery[a.Query] = m
		}
		if _, dup := m[a.Dataset]; dup {
			add("structure", "query %d assigned dataset %d twice", a.Query, a.Dataset)
			continue
		}
		m[a.Dataset] = a.Node
	}

	load := make(map[graph.NodeID]float64)
	recomputedVolume := 0.0
	for _, q := range admittedList {
		if int(q) < 0 || int(q) >= len(p.Queries) {
			continue // reported above
		}
		query := &p.Queries[q]
		m := perQuery[q]
		if len(m) != len(query.Demands) {
			add("structure", "query %d admitted with %d of %d demanded datasets assigned",
				q, len(m), len(query.Demands))
		}
		// The paper admits a query only when the *maximum* over its demanded
		// datasets of the evaluation delay meets the deadline; recompute that
		// maximum from the cloud primitives.
		maxDelay := 0.0
		complete := true
		for _, dm := range query.Demands {
			v, ok := m[dm.Dataset]
			if !ok {
				add("structure", "query %d missing assignment for dataset %d", q, dm.Dataset)
				complete = false
				continue
			}
			if !computeSet[v] {
				add("structure", "query %d dataset %d served from non-compute node %d", q, dm.Dataset, v)
				complete = false
				continue
			}
			// Paper (3): replica present at the serving node.
			if !hasReplica(s, dm.Dataset, v) {
				add("replica", "query %d reads dataset %d from node %d without a replica", q, dm.Dataset, v)
			}
			// Paper (4): evaluation delay, recomputed from first principles.
			size := p.Datasets[dm.Dataset].SizeGB
			delay := size*p.Cloud.ProcDelayPerGB(v) +
				size*dm.Selectivity*p.Cloud.DelayTo(query.Home)[v]
			if math.IsInf(delay, 1) {
				add("deadline", "query %d dataset %d at node %d is disconnected from home %d (delay = graph.Infinity)",
					q, dm.Dataset, v, query.Home)
			} else if delay > maxDelay {
				maxDelay = delay
			}
			load[v] += size * query.ComputePerGB
			recomputedVolume += size
		}
		if complete && maxDelay > query.DeadlineSec+deadlineEps {
			add("deadline", "query %d max evaluation delay %.6fs exceeds deadline %.6fs",
				q, maxDelay, query.DeadlineSec)
		}
	}

	// Paper (2): per-node computing capacity.
	if !opt.IgnoreCapacity {
		for v, used := range load {
			if capGHz := p.Cloud.Capacity(v); used > capGHz+capEps {
				add("capacity", "node %d loaded %.6f GHz over capacity %.6f", v, used, capGHz)
			}
		}
	}

	// Paper (1): the objective. The recomputed value (sum of dataset sizes
	// over admitted demands) must agree with the solution's own accessor and
	// with whatever the caller reported.
	// Skip the accessor cross-check when Admitted holds unknown IDs:
	// Solution.Volume would panic, and the structure violation already stands.
	if indexable {
		if vol := s.Volume(p); math.Abs(vol-recomputedVolume) > volumeEps {
			add("objective", "Solution.Volume reports %.9f GB but admitted demands sum to %.9f GB",
				vol, recomputedVolume)
		}
	}
	if !math.IsNaN(opt.ReportedVolume) && math.Abs(opt.ReportedVolume-recomputedVolume) > volumeEps {
		add("objective", "reported volume %.9f GB but admitted demands sum to %.9f GB",
			opt.ReportedVolume, recomputedVolume)
	}
	return out
}

// hasReplica checks membership without relying on the solution's sortedness
// (which is itself under test).
func hasReplica(s *placement.Solution, n workload.DatasetID, v graph.NodeID) bool {
	for _, node := range s.Replicas[n] {
		if node == v {
			return true
		}
	}
	return false
}

// CheckSolution validates s against every constraint including the objective
// recomputation and returns an error joining all violations, or nil.
// reportedVolume is the objective value the algorithm or experiment layer
// reported for this solution.
func CheckSolution(p *placement.Problem, s *placement.Solution, reportedVolume float64) error {
	return toError(Check(p, s, Options{ReportedVolume: reportedVolume}))
}

// CheckAdmissions validates everything except the offline capacity bound —
// the applicable contract for online runs with finite hold times, where
// capacity is enforced instant by instant rather than over the cumulative
// admission set.
func CheckAdmissions(p *placement.Problem, s *placement.Solution, reportedVolume float64) error {
	return toError(Check(p, s, Options{IgnoreCapacity: true, ReportedVolume: reportedVolume}))
}

func toError(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Kind != vs[j].Kind {
			return vs[i].Kind < vs[j].Kind
		}
		return vs[i].Msg < vs[j].Msg
	})
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.String()
	}
	return fmt.Errorf("invariant: %d violation(s):\n\t%s", len(vs), strings.Join(msgs, "\n\t"))
}
