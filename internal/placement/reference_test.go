// The reference solution: Admit, Unadmit, Reassign, AddReplica and Save as
// they were when Admitted was a sorted slice field that Admit re-sorted on
// every call — bodies verbatim, receiver renamed. The counted multiset in
// placement.go is the only production structure; this is what it must agree
// with, entry for entry and byte for byte. TestSolutionMatchesReference
// drives both through the same random interleavings;
// BenchmarkSolutionAdmit/reference times the old Admit.

package placement

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/workload"
)

type refSolution struct {
	Replicas    map[workload.DatasetID][]graph.NodeID
	Assignments []Assignment
	Admitted    []workload.QueryID
}

func newRefSolution() *refSolution {
	return &refSolution{Replicas: make(map[workload.DatasetID][]graph.NodeID)}
}

func (s *refSolution) HasReplica(n workload.DatasetID, v graph.NodeID) bool {
	for _, node := range s.Replicas[n] {
		if node == v {
			return true
		}
	}
	return false
}

func (s *refSolution) AddReplica(n workload.DatasetID, v graph.NodeID) {
	if s.HasReplica(n, v) {
		return
	}
	s.Replicas[n] = append(s.Replicas[n], v)
	nodes := s.Replicas[n]
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
}

func (s *refSolution) RemoveReplica(n workload.DatasetID, v graph.NodeID) {
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

func (s *refSolution) Admit(q workload.QueryID, assignments []Assignment) {
	s.Admitted = append(s.Admitted, q)
	sort.Slice(s.Admitted, func(i, j int) bool { return s.Admitted[i] < s.Admitted[j] })
	s.Assignments = append(s.Assignments, assignments...)
}

func (s *refSolution) Unadmit(q workload.QueryID) {
	i := sort.Search(len(s.Admitted), func(i int) bool { return s.Admitted[i] >= q })
	if i >= len(s.Admitted) || s.Admitted[i] != q {
		return
	}
	s.Admitted = append(s.Admitted[:i], s.Admitted[i+1:]...)
	kept := s.Assignments[:0]
	for _, a := range s.Assignments {
		if a.Query != q {
			kept = append(kept, a)
		}
	}
	s.Assignments = kept
}

func (s *refSolution) Reassign(q workload.QueryID, n workload.DatasetID, v graph.NodeID) bool {
	for i := range s.Assignments {
		if s.Assignments[i].Query == q && s.Assignments[i].Dataset == n {
			s.Assignments[i].Node = v
			return true
		}
	}
	return false
}

func (s *refSolution) IsAdmitted(q workload.QueryID) bool {
	i := sort.Search(len(s.Admitted), func(i int) bool { return s.Admitted[i] >= q })
	return i < len(s.Admitted) && s.Admitted[i] == q
}

func (s *refSolution) Save(w io.Writer) error {
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
	for _, q := range s.Admitted {
		out.Admitted = append(out.Admitted, int(q))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
