package placement

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/workload"
)

// jsonSolution is the interchange schema of a Solution.
type jsonSolution struct {
	Replicas    map[string][]int `json:"replicas"` // dataset id → node ids
	Assignments []jsonAssignment `json:"assignments"`
	Admitted    []int            `json:"admitted"`
}

type jsonAssignment struct {
	Query   int `json:"query"`
	Dataset int `json:"dataset"`
	Node    int `json:"node"`
}

// Save writes the solution as indented JSON: the placement plan an operator
// would apply (replica locations, per-query serving nodes, admissions).
func (s *Solution) Save(w io.Writer) error {
	out := jsonSolution{Replicas: make(map[string][]int)}
	for n, nodes := range s.Replicas {
		ids := make([]int, len(nodes))
		for i, v := range nodes {
			ids[i] = int(v)
		}
		out.Replicas[fmt.Sprintf("%d", n)] = ids
	}
	for _, a := range s.Assignments {
		out.Assignments = append(out.Assignments, jsonAssignment{
			Query: int(a.Query), Dataset: int(a.Dataset), Node: int(a.Node),
		})
	}
	sort.Slice(out.Assignments, func(i, j int) bool {
		if out.Assignments[i].Query != out.Assignments[j].Query {
			return out.Assignments[i].Query < out.Assignments[j].Query
		}
		return out.Assignments[i].Dataset < out.Assignments[j].Dataset
	})
	for _, q := range s.Admitted() {
		out.Admitted = append(out.Admitted, int(q))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load reads a solution written by Save. The result is structural only;
// call Validate against the intended Problem to check feasibility.
func Load(r io.Reader) (*Solution, error) {
	var in jsonSolution
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("placement: decode solution: %w", err)
	}
	s := NewSolution()
	for key, ids := range in.Replicas {
		var n int
		if _, err := fmt.Sscanf(key, "%d", &n); err != nil {
			return nil, fmt.Errorf("placement: bad dataset key %q", key)
		}
		if n < 0 {
			return nil, fmt.Errorf("placement: negative dataset id %d", n)
		}
		for _, id := range ids {
			if id < 0 {
				return nil, fmt.Errorf("placement: negative node id %d", id)
			}
			s.AddReplica(workload.DatasetID(n), graph.NodeID(id))
		}
	}
	for _, a := range in.Assignments {
		if a.Query < 0 || a.Dataset < 0 || a.Node < 0 {
			return nil, fmt.Errorf("placement: negative ids in assignment %+v", a)
		}
		s.Assignments = append(s.Assignments, Assignment{
			Query:   workload.QueryID(a.Query),
			Dataset: workload.DatasetID(a.Dataset),
			Node:    graph.NodeID(a.Node),
		})
	}
	for _, q := range in.Admitted {
		if q < 0 {
			return nil, fmt.Errorf("placement: negative admitted query id %d", q)
		}
		s.Admit(workload.QueryID(q), nil)
	}
	return s, nil
}

// Diff reports the replica-set differences between two solutions: replicas
// to add and to remove to turn old into new, per dataset. Operators use the
// diff to apply incremental re-placements instead of rebuilding everything.
type Diff struct {
	Add    map[workload.DatasetID][]graph.NodeID
	Remove map[workload.DatasetID][]graph.NodeID
}

// DiffReplicas computes the replica Diff from old to new.
func DiffReplicas(old, new *Solution) *Diff {
	d := &Diff{
		Add:    make(map[workload.DatasetID][]graph.NodeID),
		Remove: make(map[workload.DatasetID][]graph.NodeID),
	}
	seen := map[workload.DatasetID]bool{}
	for n := range old.Replicas {
		seen[n] = true
	}
	for n := range new.Replicas {
		seen[n] = true
	}
	for n := range seen {
		for _, v := range new.Replicas[n] {
			if !old.HasReplica(n, v) {
				d.Add[n] = append(d.Add[n], v)
			}
		}
		for _, v := range old.Replicas[n] {
			if !new.HasReplica(n, v) {
				d.Remove[n] = append(d.Remove[n], v)
			}
		}
	}
	return d
}

// Moves returns the total number of replica additions plus removals.
func (d *Diff) Moves() int {
	n := 0
	for _, vs := range d.Add {
		n += len(vs)
	}
	for _, vs := range d.Remove {
		n += len(vs)
	}
	return n
}
