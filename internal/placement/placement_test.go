package placement

import (
	"math"
	"strings"
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/graph"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// tiny builds a deterministic small problem for hand-checked tests.
func tiny(t testing.TB, k int) *Problem {
	t.Helper()
	top := topology.MustGenerate(topology.DefaultConfig())
	wc := workload.DefaultConfig()
	wc.NumDatasets = 6
	wc.NumQueries = 15
	w := workload.MustGenerate(wc, top)
	p, err := NewProblem(cluster.New(top), w, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	top := topology.MustGenerate(topology.DefaultConfig())
	ec := cluster.New(top)
	wc := workload.DefaultConfig()
	wc.NumDatasets = 3
	wc.NumQueries = 5
	w := workload.MustGenerate(wc, top)

	if _, err := NewProblem(ec, w, 0); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewProblem(ec, &workload.Workload{}, 1); err == nil {
		t.Fatal("empty dataset collection accepted")
	}
	bad := &workload.Workload{
		Datasets: w.Datasets,
		Queries:  []workload.Query{{ID: 0, Demands: nil}},
	}
	if _, err := NewProblem(ec, bad, 1); err == nil {
		t.Fatal("query with no demands accepted")
	}
	bad2 := &workload.Workload{
		Datasets: w.Datasets,
		Queries: []workload.Query{{ID: 0, Demands: []workload.Demand{
			{Dataset: workload.DatasetID(len(w.Datasets)), Selectivity: 0.5}}}},
	}
	if _, err := NewProblem(ec, bad2, 1); err == nil {
		t.Fatal("dangling dataset reference accepted")
	}
	if _, err := NewProblem(ec, w, 3); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
}

func TestEvalDelayFormula(t *testing.T) {
	p := tiny(t, 3)
	q := p.Queries[0]
	d := q.Demands[0]
	v := p.Cloud.ComputeNodes()[0]
	got, ok := p.EvalDelay(q.ID, d.Dataset, v)
	if !ok {
		t.Fatal("EvalDelay rejected a demanded dataset")
	}
	size := p.Datasets[d.Dataset].SizeGB
	want := size*p.Cloud.ProcDelayPerGB(v) +
		size*d.Selectivity*p.Cloud.TransferDelayPerGB(v, q.Home)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("EvalDelay = %v, want %v", got, want)
	}
	// Non-demanded dataset.
	var missing workload.DatasetID = -1
	for id := range p.Datasets {
		demanded := false
		for _, dm := range q.Demands {
			if dm.Dataset == workload.DatasetID(id) {
				demanded = true
			}
		}
		if !demanded {
			missing = workload.DatasetID(id)
			break
		}
	}
	if missing >= 0 {
		if _, ok := p.EvalDelay(q.ID, missing, v); ok {
			t.Fatal("EvalDelay accepted non-demanded dataset")
		}
	}
}

// TestDemandDelaysMatchEvalDelay holds the hoisted kernel to EvalDelay, and
// both to the delay model as EvalDelay spelled it before the kernel existed,
// bit for bit on every (query, demand, compute node) cell of the default
// 30-node instance and of the bench's 500-node one (575 500 cells).
func TestDemandDelaysMatchEvalDelay(t *testing.T) {
	bench := func() *Problem {
		top := topology.MustGenerate(topology.ScaledConfig(500, 1))
		wc := workload.DefaultConfig()
		wc.Seed = 1
		wc.NumDatasets = 40
		wc.NumQueries = 400
		wc.MaxDatasetsPerQuery = 5
		p, err := NewProblem(cluster.New(top), workload.MustGenerate(wc, top), 3)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, p := range []*Problem{tiny(t, 3), bench()} {
		nodes := p.Cloud.ComputeNodes()
		procDelay := make([]float64, len(nodes))
		for i, v := range nodes {
			procDelay[i] = p.Cloud.ProcDelayPerGB(v)
		}
		cells := 0
		for qi := range p.Queries {
			q := &p.Queries[qi]
			for _, dm := range q.Demands {
				delays := p.DemandDelays(q.ID, dm.Dataset, procDelay)
				first, _ := p.Demand(q.ID, dm.Dataset)
				size := p.Datasets[dm.Dataset].SizeGB
				for i, v := range nodes {
					want, ok := p.EvalDelay(q.ID, dm.Dataset, v)
					if !ok {
						t.Fatalf("query %d does not demand dataset %d", q.ID, dm.Dataset)
					}
					proc := size * p.Cloud.ProcDelayPerGB(v)
					trans := size * first.Selectivity * p.Cloud.TransferDelayPerGB(v, q.Home)
					if spelled := proc + trans; math.Float64bits(spelled) != math.Float64bits(want) {
						t.Fatalf("query %d dataset %d node %d: EvalDelay = %v, the model spelled out %v", q.ID, dm.Dataset, v, want, spelled)
					}
					if got := delays.At(i); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("query %d dataset %d node %d: DemandDelays.At = %v, EvalDelay %v", q.ID, dm.Dataset, v, got, want)
					}
					cells++
				}
			}
		}
		t.Logf("%d compute nodes: %d cells", len(nodes), cells)
	}
}

func TestEvalDelayAtHomeIsProcessingOnly(t *testing.T) {
	p := tiny(t, 3)
	q := p.Queries[0]
	d := q.Demands[0]
	got, _ := p.EvalDelay(q.ID, d.Dataset, q.Home)
	want := p.Datasets[d.Dataset].SizeGB * p.Cloud.ProcDelayPerGB(q.Home)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("home-node delay %v, want pure processing %v", got, want)
	}
}

func TestComputeNeed(t *testing.T) {
	p := tiny(t, 3)
	q := p.Queries[0]
	n := q.Demands[0].Dataset
	want := p.Datasets[n].SizeGB * q.ComputePerGB
	if got := p.ComputeNeed(q.ID, n); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ComputeNeed = %v, want %v", got, want)
	}
}

func TestSolutionReplicaBookkeeping(t *testing.T) {
	s := NewSolution()
	s.AddReplica(0, 5)
	s.AddReplica(0, 2)
	s.AddReplica(0, 5) // duplicate: no-op
	if got := s.ReplicaCount(0); got != 2 {
		t.Fatalf("ReplicaCount = %d, want 2", got)
	}
	nodes := s.Replicas[0]
	if nodes[0] != 2 || nodes[1] != 5 {
		t.Fatalf("replicas not sorted: %v", nodes)
	}
	if !s.HasReplica(0, 2) || s.HasReplica(0, 3) {
		t.Fatal("HasReplica wrong")
	}
	if s.TotalReplicas() != 2 {
		t.Fatalf("TotalReplicas = %d, want 2", s.TotalReplicas())
	}
}

func TestAdmitAndMetrics(t *testing.T) {
	p := tiny(t, 3)
	s := NewSolution()
	q := p.Queries[3]
	var as []Assignment
	for _, d := range q.Demands {
		v := p.Cloud.ComputeNodes()[0]
		s.AddReplica(d.Dataset, v)
		as = append(as, Assignment{Query: q.ID, Dataset: d.Dataset, Node: v})
	}
	s.Admit(q.ID, as)
	if !s.IsAdmitted(q.ID) || s.IsAdmitted(p.Queries[1].ID) {
		t.Fatal("IsAdmitted wrong")
	}
	wantVol := q.DemandedVolume(p.Datasets)
	if got := s.Volume(p); math.Abs(got-wantVol) > 1e-9 {
		t.Fatalf("Volume = %v, want %v", got, wantVol)
	}
	wantTp := 1.0 / float64(len(p.Queries))
	if got := s.Throughput(p); math.Abs(got-wantTp) > 1e-12 {
		t.Fatalf("Throughput = %v, want %v", got, wantTp)
	}
}

// buildFeasibleSolution admits queries greedily at feasible nodes respecting
// all constraints — used to exercise Validate's accept path.
func buildFeasibleSolution(p *Problem) *Solution {
	s := NewSolution()
	avail := make(map[graph.NodeID]float64)
	for _, v := range p.Cloud.ComputeNodes() {
		avail[v] = p.Cloud.Capacity(v)
	}
	for _, q := range p.Queries {
		var as []Assignment
		tentative := make(map[graph.NodeID]float64)
		ok := true
		for _, d := range q.Demands {
			found := false
			for _, v := range p.Cloud.ComputeNodes() {
				if !p.MeetsDeadline(q.ID, d.Dataset, v) {
					continue
				}
				if !s.HasReplica(d.Dataset, v) && s.ReplicaCount(d.Dataset) >= p.MaxReplicas {
					continue
				}
				need := p.ComputeNeed(q.ID, d.Dataset)
				if avail[v]-tentative[v] < need {
					continue
				}
				tentative[v] += need
				as = append(as, Assignment{Query: q.ID, Dataset: d.Dataset, Node: v})
				found = true
				break
			}
			if !found {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, a := range as {
			s.AddReplica(a.Dataset, a.Node)
		}
		for v, amt := range tentative {
			avail[v] -= amt
		}
		s.Admit(q.ID, as)
	}
	return s
}

func TestValidateAcceptsFeasible(t *testing.T) {
	p := tiny(t, 3)
	s := buildFeasibleSolution(p)
	if len(s.Admitted()) == 0 {
		t.Fatal("greedy admitted nothing — test instance degenerate")
	}
	if err := s.Validate(p); err != nil {
		t.Fatalf("feasible solution rejected: %v", err)
	}
}

func TestValidateRejectsReplicaBoundViolation(t *testing.T) {
	p := tiny(t, 1)
	s := NewSolution()
	s.AddReplica(0, p.Cloud.ComputeNodes()[0])
	s.AddReplica(0, p.Cloud.ComputeNodes()[1])
	if err := s.Validate(p); err == nil || !strings.Contains(err.Error(), "replicas") {
		t.Fatalf("K violation not caught: %v", err)
	}
}

func TestValidateRejectsAssignmentWithoutReplica(t *testing.T) {
	p := tiny(t, 3)
	s := NewSolution()
	q := p.Queries[0]
	var as []Assignment
	for _, d := range q.Demands {
		as = append(as, Assignment{Query: q.ID, Dataset: d.Dataset, Node: p.Cloud.ComputeNodes()[0]})
	}
	s.Admit(q.ID, as)
	if err := s.Validate(p); err == nil || !strings.Contains(err.Error(), "without a replica") {
		t.Fatalf("missing replica not caught: %v", err)
	}
}

func TestValidateRejectsPartialBundle(t *testing.T) {
	p := tiny(t, 3)
	var q workload.Query
	found := false
	for _, cand := range p.Queries {
		if len(cand.Demands) >= 2 {
			q, found = cand, true
			break
		}
	}
	if !found {
		t.Skip("no multi-dataset query in instance")
	}
	s := NewSolution()
	d := q.Demands[0]
	v := p.Cloud.ComputeNodes()[0]
	s.AddReplica(d.Dataset, v)
	s.Admit(q.ID, []Assignment{{Query: q.ID, Dataset: d.Dataset, Node: v}})
	if err := s.Validate(p); err == nil {
		t.Fatal("partially-assigned admitted query not caught")
	}
}

func TestValidateRejectsDeadlineViolation(t *testing.T) {
	p := tiny(t, 7)
	// Find a (query, dataset, node) whose delay violates the deadline.
	for _, q := range p.Queries {
		for _, d := range q.Demands {
			for _, v := range p.Cloud.ComputeNodes() {
				if delay, ok := p.EvalDelay(q.ID, d.Dataset, v); ok && delay > q.DeadlineSec {
					if len(q.Demands) != 1 {
						continue // keep the test simple: single-dataset query
					}
					s := NewSolution()
					s.AddReplica(d.Dataset, v)
					s.Admit(q.ID, []Assignment{{Query: q.ID, Dataset: d.Dataset, Node: v}})
					err := s.Validate(p)
					if err == nil || !strings.Contains(err.Error(), "deadline") {
						t.Fatalf("deadline violation not caught: %v", err)
					}
					return
				}
			}
		}
	}
	t.Skip("no deadline-violating placement found in instance")
}

func TestValidateRejectsCapacityViolation(t *testing.T) {
	top := topology.MustGenerate(topology.DefaultConfig())
	// Hand-build a workload that overloads one cloudlet.
	var cloudlet graph.NodeID = -1
	for _, n := range top.Nodes {
		if n.Kind == topology.Cloudlet {
			cloudlet = n.ID
			break
		}
	}
	w := &workload.Workload{
		Datasets: []workload.Dataset{{ID: 0, SizeGB: 6, Origin: cloudlet}},
	}
	// Enough queries to exceed a ≤16 GHz cloudlet: 6 GB × 1 GHz/GB each.
	for i := 0; i < 5; i++ {
		w.Queries = append(w.Queries, workload.Query{
			ID:           workload.QueryID(i),
			Home:         cloudlet,
			Demands:      []workload.Demand{{Dataset: 0, Selectivity: 0.5}},
			ComputePerGB: 1.0,
			DeadlineSec:  1e9,
		})
	}
	p, err := NewProblem(cluster.New(top), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolution()
	s.AddReplica(0, cloudlet)
	for _, q := range w.Queries {
		s.Admit(q.ID, []Assignment{{Query: q.ID, Dataset: 0, Node: cloudlet}})
	}
	if err := s.Validate(p); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("capacity violation not caught: %v", err)
	}
}

func TestValidateRejectsDuplicateAssignment(t *testing.T) {
	p := tiny(t, 3)
	q := p.Queries[0]
	d := q.Demands[0]
	v := p.Cloud.ComputeNodes()[0]
	s := NewSolution()
	s.AddReplica(d.Dataset, v)
	s.Admit(q.ID, []Assignment{
		{Query: q.ID, Dataset: d.Dataset, Node: v},
		{Query: q.ID, Dataset: d.Dataset, Node: v},
	})
	if err := s.Validate(p); err == nil || !strings.Contains(err.Error(), "two assignments") {
		t.Fatalf("duplicate assignment not caught: %v", err)
	}
}

func TestValidateRejectsAssignmentsForNonAdmitted(t *testing.T) {
	p := tiny(t, 3)
	q := p.Queries[0]
	d := q.Demands[0]
	v := p.Cloud.ComputeNodes()[0]
	s := NewSolution()
	s.AddReplica(d.Dataset, v)
	s.Assignments = append(s.Assignments, Assignment{Query: q.ID, Dataset: d.Dataset, Node: v})
	if err := s.Validate(p); err == nil || !strings.Contains(err.Error(), "non-admitted") {
		t.Fatalf("orphan assignment not caught: %v", err)
	}
}

func TestFeasibleNodesRespectDeadline(t *testing.T) {
	p := tiny(t, 3)
	q := p.Queries[0]
	d := q.Demands[0]
	nodes := p.FeasibleNodes(q.ID, d.Dataset)
	set := map[graph.NodeID]bool{}
	for _, v := range nodes {
		set[v] = true
		if !p.MeetsDeadline(q.ID, d.Dataset, v) {
			t.Fatalf("FeasibleNodes returned infeasible node %d", v)
		}
	}
	for _, v := range p.Cloud.ComputeNodes() {
		if !set[v] && p.MeetsDeadline(q.ID, d.Dataset, v) {
			t.Fatalf("FeasibleNodes missed feasible node %d", v)
		}
	}
}

func TestUpperBoundVolume(t *testing.T) {
	p := tiny(t, 3)
	s := buildFeasibleSolution(p)
	if s.Volume(p) > p.UpperBoundVolume()+1e-9 {
		t.Fatal("solution volume exceeds trivial upper bound")
	}
}

func TestSummarizeAndString(t *testing.T) {
	p := tiny(t, 3)
	s := buildFeasibleSolution(p)
	st := s.Summarize(p)
	if st.TotalQueries != len(p.Queries) || st.Admitted != len(s.Admitted()) {
		t.Fatalf("bad stats %+v", st)
	}
	if st.Volume <= 0 || st.Throughput <= 0 {
		t.Fatalf("degenerate stats %+v", st)
	}
	if !strings.Contains(st.String(), "volume=") {
		t.Fatalf("Stats.String() = %q", st.String())
	}
}

func BenchmarkValidate(b *testing.B) {
	top := topology.MustGenerate(topology.DefaultConfig())
	wc := workload.DefaultConfig()
	wc.NumDatasets = 15
	wc.NumQueries = 80
	w := workload.MustGenerate(wc, top)
	p, err := NewProblem(cluster.New(top), w, 3)
	if err != nil {
		b.Fatal(err)
	}
	s := buildFeasibleSolution(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(p); err != nil {
			b.Fatal(err)
		}
	}
}
