package ilp

import (
	"fmt"

	"edgerep/internal/graph"
	"edgerep/internal/lp"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// Encoder translates a placement.Problem into the paper's ILP (1)–(7),
// generalized to multi-dataset queries with all-or-nothing admission:
//
//	max  Σ_m vol_m·z_m
//	s.t. Σ_l π_{mnl} = z_m                    ∀m, n ∈ S(q_m)   (3-general)
//	     π_{mnl} ≤ x_{nl}                     ∀m,n,l           (3)
//	     Σ_{m,n} |S_n|·r_m·π_{mnl} ≤ A(l)     ∀l               (2)
//	     Σ_l x_{nl} ≤ K                       ∀n               (5)
//	     π, x, z binary                                         (6,7)
//
// Deadline constraint (4) is enforced by simply not creating π variables
// for (m,n,l) triples whose delay exceeds d_qm.
type Encoder struct {
	p *placement.Problem
	// variable layout
	xIdx map[xKey]int
	pIdx map[pKey]int
	zIdx map[workload.QueryID]int
	nVar int
	prob Problem
}

type xKey struct {
	n workload.DatasetID
	l graph.NodeID
}

type pKey struct {
	m workload.QueryID
	n workload.DatasetID
	l graph.NodeID
}

// Encode builds the ILP for a placement problem. Instance size is bounded
// defensively: exact solving is only intended for small instances.
func Encode(p *placement.Problem) (*Encoder, error) {
	nodes := p.Cloud.ComputeNodes()
	approxVars := len(p.Datasets)*len(nodes) + len(p.Queries)*(1+len(nodes)*4)
	if approxVars > 4000 {
		return nil, fmt.Errorf("ilp: instance too large for exact solving (~%d variables)", approxVars)
	}

	e := &Encoder{
		p:    p,
		xIdx: make(map[xKey]int),
		pIdx: make(map[pKey]int),
		zIdx: make(map[workload.QueryID]int),
	}
	alloc := func() int { e.nVar++; return e.nVar - 1 }

	// x_{nl} for every dataset/node pair.
	for n := range p.Datasets {
		for _, l := range nodes {
			e.xIdx[xKey{workload.DatasetID(n), l}] = alloc()
		}
	}
	// z_m and π_{mnl} (only deadline-feasible triples, constraint (4)).
	for qi := range p.Queries {
		q := &p.Queries[qi]
		e.zIdx[q.ID] = alloc()
		for _, dm := range q.Demands {
			for _, l := range nodes {
				if p.MeetsDeadline(q.ID, dm.Dataset, l) {
					e.pIdx[pKey{q.ID, dm.Dataset, l}] = alloc()
				}
			}
		}
	}

	obj := make([]float64, e.nVar)
	for qi := range p.Queries {
		q := &p.Queries[qi]
		obj[e.zIdx[q.ID]] = q.DemandedVolume(p.Datasets)
	}
	e.prob.LP.Objective = obj

	row := func() []float64 { return make([]float64, e.nVar) }

	// (3-general) Σ_l π_{mnl} − z_m = 0 for every demanded dataset.
	for qi := range p.Queries {
		q := &p.Queries[qi]
		for _, dm := range q.Demands {
			r := row()
			r[e.zIdx[q.ID]] = -1
			any := false
			for _, l := range nodes {
				if idx, ok := e.pIdx[pKey{q.ID, dm.Dataset, l}]; ok {
					r[idx] = 1
					any = true
				}
			}
			if !any {
				// No feasible node at all: force z_m = 0.
				zr := row()
				zr[e.zIdx[q.ID]] = 1
				e.prob.LP.Constraints = append(e.prob.LP.Constraints,
					lp.Constraint{Coeffs: zr, Sense: lp.LE, RHS: 0})
				continue
			}
			e.prob.LP.Constraints = append(e.prob.LP.Constraints,
				lp.Constraint{Coeffs: r, Sense: lp.EQ, RHS: 0})
		}
	}

	// (3) π_{mnl} ≤ x_{nl}. Iterate queries/demands/nodes (not the map) so
	// constraint order — and therefore the solver's pivot path — is
	// deterministic.
	for qi := range p.Queries {
		q := &p.Queries[qi]
		for _, dm := range q.Demands {
			for _, l := range nodes {
				pi, ok := e.pIdx[pKey{q.ID, dm.Dataset, l}]
				if !ok {
					continue
				}
				r := row()
				r[pi] = 1
				r[e.xIdx[xKey{dm.Dataset, l}]] = -1
				e.prob.LP.Constraints = append(e.prob.LP.Constraints,
					lp.Constraint{Coeffs: r, Sense: lp.LE, RHS: 0})
			}
		}
	}

	// (2) node capacity.
	for _, l := range nodes {
		r := row()
		any := false
		for qi := range p.Queries {
			q := &p.Queries[qi]
			for _, dm := range q.Demands {
				if pi, ok := e.pIdx[pKey{q.ID, dm.Dataset, l}]; ok {
					r[pi] = e.p.ComputeNeed(q.ID, dm.Dataset)
					any = true
				}
			}
		}
		if any {
			e.prob.LP.Constraints = append(e.prob.LP.Constraints,
				lp.Constraint{Coeffs: r, Sense: lp.LE, RHS: p.Cloud.Capacity(l)})
		}
	}

	// (5) replica bound.
	for n := range p.Datasets {
		r := row()
		for _, l := range nodes {
			r[e.xIdx[xKey{workload.DatasetID(n), l}]] = 1
		}
		e.prob.LP.Constraints = append(e.prob.LP.Constraints,
			lp.Constraint{Coeffs: r, Sense: lp.LE, RHS: float64(p.MaxReplicas)})
	}

	// (6,7) binaries.
	e.prob.Integer = make([]bool, e.nVar)
	e.prob.UpperBound = make([]float64, e.nVar)
	for i := range e.prob.Integer {
		e.prob.Integer[i] = true
		e.prob.UpperBound[i] = 1
	}
	return e, nil
}

// SolveExact encodes and solves the instance, decoding back into a validated
// placement.Solution.
func SolveExact(p *placement.Problem) (*placement.Solution, error) {
	e, err := Encode(p)
	if err != nil {
		return nil, err
	}
	sol, err := Solve(&e.prob)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("ilp: exact solve ended %v", sol.Status)
	}
	return e.Decode(sol)
}

// Decode converts an ILP solution into a placement.Solution and validates it
// against every constraint.
func (e *Encoder) Decode(sol *Solution) (*placement.Solution, error) {
	out := placement.NewSolution()
	on := func(idx int) bool { return sol.X[idx] > 0.5 }

	// Admitted queries and their assignments.
	for qi := range e.p.Queries {
		q := &e.p.Queries[qi]
		if !on(e.zIdx[q.ID]) {
			continue
		}
		var as []placement.Assignment
		for _, dm := range q.Demands {
			assigned := false
			for _, l := range e.p.Cloud.ComputeNodes() {
				idx, ok := e.pIdx[pKey{q.ID, dm.Dataset, l}]
				if ok && on(idx) {
					as = append(as, placement.Assignment{Query: q.ID, Dataset: dm.Dataset, Node: l})
					// Serving requires the replica; π ≤ x guarantees
					// x is set, but add it explicitly for robustness.
					out.AddReplica(dm.Dataset, l)
					assigned = true
					break
				}
			}
			if !assigned {
				return nil, fmt.Errorf("ilp: admitted query %d has unserved dataset %d", q.ID, dm.Dataset)
			}
		}
		out.Admit(q.ID, as)
	}
	// Remaining placed replicas (x set without being used still count
	// toward K; include them so the decoded solution reflects the ILP).
	for n := range e.p.Datasets {
		ds := workload.DatasetID(n)
		for _, l := range e.p.Cloud.ComputeNodes() {
			idx := e.xIdx[xKey{ds, l}]
			if on(idx) && !out.HasReplica(ds, l) && out.ReplicaCount(ds) < e.p.MaxReplicas {
				out.AddReplica(ds, l)
			}
		}
	}
	if err := out.Validate(e.p); err != nil {
		return nil, fmt.Errorf("ilp: decoded solution invalid: %w", err)
	}
	return out, nil
}
