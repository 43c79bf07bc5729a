package invariant

import (
	"math"
	"strings"
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// feasibleInstance builds a paper-default instance and solves it with
// Appro-G, giving the tests a known-good (problem, solution) pair to break.
func feasibleInstance(t *testing.T, seed int64) (*placement.Problem, *placement.Solution) {
	t.Helper()
	tc := topology.DefaultConfig()
	tc.Seed = seed
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = 10
	wc.NumQueries = 40
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ApproG(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Admitted()) == 0 {
		t.Fatal("instance admits nothing; tests below need admissions to corrupt")
	}
	return p, res.Solution
}

func cloneSolution(s *placement.Solution) *placement.Solution {
	c := placement.NewSolution()
	for n, vs := range s.Replicas {
		c.Replicas[n] = append([]graph.NodeID(nil), vs...)
	}
	for _, q := range s.Admitted() {
		c.Admit(q, nil)
	}
	c.Assignments = append([]placement.Assignment(nil), s.Assignments...)
	return c
}

// cloneOrphaningFirst copies s without its first admission but with that
// query's assignments left behind.
func cloneOrphaningFirst(s *placement.Solution) *placement.Solution {
	c := cloneSolution(s)
	c.Unadmit(s.Admitted()[0])
	c.Assignments = append([]placement.Assignment(nil), s.Assignments...)
	return c
}

// cloneProblem copies the query slice so tests can corrupt deadlines and
// demands without touching the shared instance.
func cloneProblem(p *placement.Problem) *placement.Problem {
	cp := *p
	cp.Queries = append([]workload.Query(nil), p.Queries...)
	return &cp
}

func kinds(vs []Violation) map[string]int {
	m := map[string]int{}
	for _, v := range vs {
		m[v.Kind]++
	}
	return m
}

func wantKind(t *testing.T, vs []Violation, kind string) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatalf("no violations, want kind %q", kind)
	}
	if kinds(vs)[kind] == 0 {
		t.Fatalf("violations %v lack kind %q", vs, kind)
	}
}

func TestFeasibleSolutionPasses(t *testing.T) {
	p, s := feasibleInstance(t, 1)
	if vs := Check(p, s, Options{ReportedVolume: s.Volume(p)}); len(vs) != 0 {
		t.Fatalf("feasible Appro-G solution flagged:\n%v", vs)
	}
	if err := CheckSolution(p, s, s.Volume(p)); err != nil {
		t.Fatal(err)
	}
	if err := CheckAdmissions(p, s, s.Volume(p)); err != nil {
		t.Fatal(err)
	}
}

func TestKBoundViolation(t *testing.T) {
	p, s := feasibleInstance(t, 1)
	bad := cloneSolution(s)
	// Blow past K on dataset 0 using distinct compute nodes.
	for _, v := range p.Cloud.ComputeNodes() {
		bad.AddReplica(0, v)
		if len(bad.Replicas[0]) > p.MaxReplicas {
			break
		}
	}
	wantKind(t, Check(p, bad, Options{ReportedVolume: math.NaN()}), "k-bound")
}

func TestReplicaViolation(t *testing.T) {
	p, s := feasibleInstance(t, 1)
	bad := cloneSolution(s)
	// Yank the replica out from under the first assignment.
	a := bad.Assignments[0]
	nodes := bad.Replicas[a.Dataset][:0]
	for _, v := range bad.Replicas[a.Dataset] {
		if v != a.Node {
			nodes = append(nodes, v)
		}
	}
	bad.Replicas[a.Dataset] = nodes
	wantKind(t, Check(p, bad, Options{ReportedVolume: math.NaN()}), "replica")
}

func TestDeadlineViolation(t *testing.T) {
	p, s := feasibleInstance(t, 1)
	bp := cloneProblem(p)
	q := s.Admitted()[0]
	bp.Queries[q].DeadlineSec = 0
	wantKind(t, Check(bp, s, Options{ReportedVolume: math.NaN()}), "deadline")
}

func TestCapacityViolation(t *testing.T) {
	p, s := feasibleInstance(t, 1)
	bp := cloneProblem(p)
	q := s.Admitted()[0]
	bp.Queries[q].ComputePerGB *= 1e9
	wantKind(t, Check(bp, s, Options{IgnoreCapacity: false, ReportedVolume: math.NaN()}), "capacity")

	// The online variant deliberately waives exactly this constraint.
	vs := Check(bp, s, Options{IgnoreCapacity: true, ReportedVolume: math.NaN()})
	if kinds(vs)["capacity"] != 0 {
		t.Fatalf("IgnoreCapacity still reported capacity violations: %v", vs)
	}
}

func TestObjectiveViolation(t *testing.T) {
	p, s := feasibleInstance(t, 1)
	err := CheckSolution(p, s, s.Volume(p)+1)
	if err == nil || !strings.Contains(err.Error(), "objective") {
		t.Fatalf("mis-reported volume not caught: %v", err)
	}
	// NaN opts out of the reported-volume cross-check only.
	if vs := Check(p, s, Options{ReportedVolume: math.NaN()}); len(vs) != 0 {
		t.Fatalf("NaN reported volume should skip the cross-check: %v", vs)
	}
}

func TestStructureViolations(t *testing.T) {
	p, s := feasibleInstance(t, 1)

	// An unsorted admitted list cannot be built any more: Admitted() is
	// ascending by construction. What the ordering check still catches is a
	// repeat.
	t.Run("query admitted twice", func(t *testing.T) {
		bad := cloneSolution(s)
		bad.Admit(s.Admitted()[0], nil)
		wantKind(t, Check(p, bad, Options{ReportedVolume: math.NaN()}), "structure")
	})

	t.Run("assignment for non-admitted query", func(t *testing.T) {
		bad := cloneOrphaningFirst(s)
		wantKind(t, Check(p, bad, Options{ReportedVolume: math.NaN()}), "structure")
	})

	t.Run("missing assignment", func(t *testing.T) {
		bad := cloneSolution(s)
		bad.Assignments = bad.Assignments[1:]
		wantKind(t, Check(p, bad, Options{ReportedVolume: math.NaN()}), "structure")
	})

	t.Run("duplicate assignment", func(t *testing.T) {
		bad := cloneSolution(s)
		bad.Assignments = append(bad.Assignments, bad.Assignments[0])
		wantKind(t, Check(p, bad, Options{ReportedVolume: math.NaN()}), "structure")
	})

	t.Run("replica on non-compute node", func(t *testing.T) {
		bad := cloneSolution(s)
		bad.Replicas[0] = append([]graph.NodeID(nil), graph.NodeID(1<<20))
		wantKind(t, Check(p, bad, Options{ReportedVolume: math.NaN()}), "structure")
	})

	t.Run("replica for unknown dataset", func(t *testing.T) {
		bad := cloneSolution(s)
		bad.Replicas[workload.DatasetID(len(p.Datasets)+5)] = []graph.NodeID{p.Cloud.ComputeNodes()[0]}
		wantKind(t, Check(p, bad, Options{ReportedVolume: math.NaN()}), "structure")
	})

	t.Run("admitted unknown query", func(t *testing.T) {
		bad := cloneSolution(s)
		bad.Admit(workload.QueryID(len(p.Queries)+7), nil)
		wantKind(t, Check(p, bad, Options{ReportedVolume: math.NaN()}), "structure")
	})
}

func TestErrorJoinsAndSortsViolations(t *testing.T) {
	p, s := feasibleInstance(t, 1)
	bad := cloneOrphaningFirst(s)             // structure
	err := CheckSolution(p, bad, s.Volume(p)) // and objective (volume shrank)
	if err == nil {
		t.Fatal("corrupted solution passed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "structure:") || !strings.Contains(msg, "objective:") {
		t.Fatalf("error lacks expected kinds: %v", msg)
	}
	if strings.Index(msg, "objective:") > strings.Index(msg, "structure:") {
		t.Fatalf("violations not sorted by kind: %v", msg)
	}
}
