package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// scaledProblem builds the instance internal/experiments builds for one
// (seed, |V|, F, K) cell (that package imports this one, so the test cannot
// call it); split is the paper's special case. With 500 nodes, 40 datasets,
// 400 queries, F = 5 and K = 3 it is the bench's batch-solve instance, as
// server.BuildInstance assembles it.
func scaledProblem(tb testing.TB, seed int64, nodes, nd, nq, f, k int, split bool) *placement.Problem {
	tb.Helper()
	top := topology.MustGenerate(topology.ScaledConfig(nodes, seed))
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = nd
	wc.NumQueries = nq
	wc.MaxDatasetsPerQuery = f
	w := workload.MustGenerate(wc, top)
	if split {
		w = w.SplitSingleDataset()
	}
	p, err := placement.NewProblem(cluster.New(top), w, k)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func benchProblem(tb testing.TB, seed int64, f int) *placement.Problem {
	return scaledProblem(tb, seed, 500, 40, 400, f, 3, false)
}

// starNode is one cloudlet of a hand-built star: its capacity, its d(v), and
// the per-GB delay of its link to the hub.
type starNode struct{ capGHz, proc, link float64 }

// starProblem hangs cloudlets 1..n off base station 0, the home of every
// query. A capacity of 0 is written after loading (the loader refuses it).
func starProblem(tb testing.TB, nodes []starNode, sizes []float64, queries []workload.Query, k int) *placement.Problem {
	tb.Helper()
	var js strings.Builder
	js.WriteString(`{"nodes": [{"id": 0, "kind": "basestation"}`)
	for i, n := range nodes {
		fmt.Fprintf(&js, `, {"id": %d, "kind": "cloudlet", "capacity_ghz": %g, "proc_delay_per_gb": %g}`,
			i+1, max(n.capGHz, 1), n.proc)
	}
	js.WriteString(`], "links": [`)
	for i, n := range nodes {
		if i > 0 {
			js.WriteString(", ")
		}
		fmt.Fprintf(&js, `{"from": 0, "to": %d, "delay_per_gb": %g}`, i+1, n.link)
	}
	js.WriteString(`]}`)
	top, err := topology.Load(strings.NewReader(js.String()))
	if err != nil {
		tb.Fatal(err)
	}
	for i, n := range nodes {
		top.Nodes[i+1].CapacityGHz = n.capGHz
	}
	w := &workload.Workload{}
	for i, size := range sizes {
		w.Datasets = append(w.Datasets, workload.Dataset{ID: workload.DatasetID(i), SizeGB: size, Origin: 1})
	}
	for i, q := range queries {
		q.ID = workload.QueryID(i)
		w.Queries = append(w.Queries, q)
	}
	p, err := placement.NewProblem(cluster.New(top), w, k)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func demands(ds ...int) []workload.Demand {
	out := make([]workload.Demand, len(ds))
	for i, n := range ds {
		out[i] = workload.Demand{Dataset: workload.DatasetID(n), Selectivity: 0.5}
	}
	return out
}

// squeezedProblem: query 0's two demands both want cloudlet 1, which has room
// for either but not both, so the plan sends the second to cloudlet 2 — a fast
// processor behind a slow link, dear for that demand's large intermediate
// result — and the bound, each demand at its own cheapest node, sits strictly
// below the plan's cost. Query 1 then loads cloudlet 1 a little: its price
// rises past cloudlet 2's for query 0's big first demand, which moves there
// and leaves cloudlet 1 to the second demand at a fraction of what cloudlet 2
// charged it. Query 0's ratio falls although no price did; query 2's sits
// between the two.
func squeezedProblem(tb testing.TB) *placement.Problem {
	p := starProblem(tb,
		[]starNode{{8, 0.5, 0.1}, {100, 0.52, 3}},
		[]float64{6, 3, 1, 1},
		[]workload.Query{
			{Demands: demands(0, 1), ComputePerGB: 1, DeadlineSec: 20},
			{Demands: demands(2), ComputePerGB: 0.5, DeadlineSec: 20},
			{Demands: demands(3), ComputePerGB: 1, DeadlineSec: 7.83},
		}, 3)
	p.Queries[0].Demands[0].Selectivity = 0.01
	p.Queries[0].Demands[1].Selectivity = 1
	return p
}

// relayedProblem: query 0's ratio falls over a commit that disturbs nothing of
// it. Its demands are small, large and medium, in that order, and cloudlet 2
// has room for the large one alone or for the other two together. At first
// the small demand sits on cloudlet 1 (roomy, a shade cheaper for it), the
// large one on cloudlet 2, and the medium one, shut out of cloudlet 2, pays
// cloudlet 1's slow link. Query 1 then loads cloudlet 1 a little — it stays
// roomy — and the small demand moves to cloudlet 2, which pushes the large one
// out to cloudlet 3 at little extra and lets the medium one in at less than
// half of what it paid. Only a true lower bound has query 0 planned again
// before query 2, whose ratio lies between query 0's old one and its new one.
func relayedProblem(tb testing.TB) *placement.Problem {
	return starProblem(tb,
		[]starNode{{40, 0.5, 1}, {5.5, 0.52, 0.1}, {100, 0.5, 3}},
		[]float64{1, 5, 3, 1, 1},
		[]workload.Query{
			{Demands: []workload.Demand{{Dataset: 0, Selectivity: 0.01}, {Dataset: 1, Selectivity: 0.1}, {Dataset: 2, Selectivity: 1}},
				ComputePerGB: 1, DeadlineSec: 40},
			{Demands: []workload.Demand{{Dataset: 3, Selectivity: 0.01}}, ComputePerGB: 0.5, DeadlineSec: 40},
			{Demands: demands(4), ComputePerGB: 50, DeadlineSec: 27},
		}, 3)
}

// forkedProblem: whether query 0 can be placed depends on prices alone. Its
// second demand makes its deadline only at cloudlet 2, which has room for
// either demand but not both. While cloudlet 1 is free the first demand goes
// there and the plan succeeds; once query 1's commit has priced cloudlet 1 up,
// the first demand takes cloudlet 2 and strands the second. The commit opened
// no replica query 0 cares about and left cloudlet 1 room to spare: only that
// the bundle is not secure says it must be planned again, and when (query 2 is
// there to be admitted ahead of it if it is not).
func forkedProblem(tb testing.TB) *placement.Problem {
	p := starProblem(tb,
		[]starNode{{100, 0.4, 3}, {6, 0.5, 0.1}},
		[]float64{4, 4, 10, 1},
		[]workload.Query{
			{Demands: demands(0, 1), ComputePerGB: 1, DeadlineSec: 3},
			{Demands: demands(2), ComputePerGB: 1, DeadlineSec: 100},
			{Demands: demands(3), ComputePerGB: 1, DeadlineSec: 1},
		}, 3)
	p.Queries[0].Demands[0].Selectivity = 0.01
	p.Queries[0].Demands[1].Selectivity = 1
	p.Queries[1].Demands[0].Selectivity = 0.01
	return p
}

// solveTraced runs one solver with a deterministic trace sink attached and
// returns its result with the trace it wrote.
func solveTraced(t *testing.T, solve func() *Result) (*Result, []byte) {
	t.Helper()
	instrument.ResetTrace()
	var buf bytes.Buffer
	sink := instrument.NewJSONLSink(&buf)
	instrument.SetTraceSink(sink)
	defer instrument.ResetTrace()
	res := solve()
	instrument.ResetTrace()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// requireMatchesReference solves p with the production ascent and with the
// reference, and requires the same result — assignments in order, replica
// sets, rounds, rejections, preferred sites, FinalTheta to the bit — and the
// same trace bytes. (Validate is run's business: it refuses a query served one
// dataset twice, which the ascent must still agree on.) It returns the
// production result.
func requireMatchesReference(t *testing.T, p *placement.Problem, opt Options, algo string) *Result {
	t.Helper()
	got, gotTrace := solveTraced(t, func() *Result { return ascend(p, opt, algo) })
	want, wantTrace := solveTraced(t, func() *Result { return runReference(p, opt, algo) })
	if got.Rounds != want.Rounds || got.Rejected != want.Rejected {
		t.Fatalf("%d rounds / %d rejected, reference %d / %d", got.Rounds, got.Rejected, want.Rounds, want.Rejected)
	}
	if !reflect.DeepEqual(got.Solution.Assignments, want.Solution.Assignments) {
		for i := range want.Solution.Assignments {
			if i >= len(got.Solution.Assignments) || got.Solution.Assignments[i] != want.Solution.Assignments[i] {
				t.Fatalf("assignment %d differs from the reference's %+v (%d vs %d assignments)",
					i, want.Solution.Assignments[i], len(got.Solution.Assignments), len(want.Solution.Assignments))
			}
		}
		t.Fatalf("%d assignments, reference %d", len(got.Solution.Assignments), len(want.Solution.Assignments))
	}
	if !reflect.DeepEqual(got.Solution, want.Solution) {
		t.Fatalf("replica sets or admitted set differ: %v, reference %v", got.Solution.Replicas, want.Solution.Replicas)
	}
	if !reflect.DeepEqual(got.PreferredSites, want.PreferredSites) {
		t.Fatalf("preferred sites %v, reference %v", got.PreferredSites, want.PreferredSites)
	}
	if len(got.FinalTheta) != len(want.FinalTheta) {
		t.Fatalf("FinalTheta covers %d nodes, reference %d", len(got.FinalTheta), len(want.FinalTheta))
	}
	for v, th := range want.FinalTheta {
		if math.Float64bits(got.FinalTheta[v]) != math.Float64bits(th) {
			t.Fatalf("FinalTheta[%d] = %v, reference %v", v, got.FinalTheta[v], th)
		}
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		gl, wl := bytes.Split(gotTrace, []byte("\n")), bytes.Split(wantTrace, []byte("\n"))
		for i := range wl {
			if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
				var g []byte
				if i < len(gl) {
					g = gl[i]
				}
				t.Fatalf("trace line %d:\n  got %s\n want %s", i+1, g, wl[i])
			}
		}
		t.Fatalf("trace has %d lines, reference %d", len(gl), len(wl))
	}
	if len(gotTrace) == 0 {
		t.Fatal("no trace written")
	}
	return got
}

// TestAscentMatchesReference is the "dump and cmp" of the admission loop: on
// every instance the figures sweep, the ablation rows, the bench instance and
// the hand-built ones random instances never reach, the ascent that plans only
// what a round needs returns the reference's result and writes its trace.
func TestAscentMatchesReference(t *testing.T) {
	type instance struct {
		name string
		p    *placement.Problem
		opt  Options
		algo string
	}
	var cases []instance
	add := func(name string, p *placement.Problem, opt Options) {
		algo := "appro-s"
		for i := range p.Queries {
			if len(p.Queries[i].Demands) != 1 {
				algo = "appro-g"
			}
		}
		cases = append(cases, instance{name, p, opt, algo})
	}

	// The cells of Figs. 2–5 at the quick and the golden configurations
	// (experiments.QuickSimConfig, goldenConfig): 12 datasets, 60 queries.
	for _, seed := range []int64{1, 2, 3} {
		for _, size := range []int{20, 50, 80} {
			add(fmt.Sprintf("fig2 V=%d seed=%d", size, seed), scaledProblem(t, seed, size, 12, 60, 5, 3, true), Options{})
			add(fmt.Sprintf("fig3 V=%d seed=%d", size, seed), scaledProblem(t, seed, size, 12, 60, 5, 3, false), Options{})
		}
		for _, f := range []int{1, 3, 5} {
			add(fmt.Sprintf("fig4 F=%d seed=%d", f, seed), scaledProblem(t, seed, 30, 12, 60, f, 3, false), Options{})
		}
		for _, k := range []int{1, 3, 4, 5, 7} {
			add(fmt.Sprintf("fig5 K=%d seed=%d", k, seed), scaledProblem(t, seed, 30, 12, 60, 5, k, false), Options{})
		}
	}
	// The ablation rows (experiments.DefaultAblationConfig): the mechanisms
	// on all eight seeds, the price sweeps' extremes on two.
	for seed := int64(1); seed <= 8; seed++ {
		p := scaledProblem(t, seed, 30, 12, 60, 5, 3, false)
		add(fmt.Sprintf("lazy-replication seed=%d", seed), p, Options{NoProactivePlacement: true})
		add(fmt.Sprintf("id-order seed=%d", seed), p, Options{ArbitraryOrder: true})
		add(fmt.Sprintf("partial-bundles seed=%d", seed), p, Options{PartialAdmission: true})
		add(fmt.Sprintf("id-order partial-bundles seed=%d", seed), p, Options{ArbitraryOrder: true, PartialAdmission: true})
		if seed > 2 {
			continue
		}
		for _, opt := range []Options{
			{PriceBase: 4}, {PriceBase: 61}, {ReplicaPriceWeight: 0.05}, {ReplicaPriceWeight: 2},
			{DelayPriceWeight: 0.05}, {DelayPriceWeight: 1},
		} {
			add(fmt.Sprintf("%+v seed=%d", opt, seed), p, opt)
		}
	}
	// Two hundred queries on thirty nodes, replicas opened lazily: bundles
	// whose placement hangs on which node an earlier demand is priced onto
	// (forkedProblem's case, as random instances produce it).
	for _, k := range []int{1, 3} {
		add(fmt.Sprintf("contended K=%d", k), scaledProblem(t, 3, 30, 17, 200, 4, k, false), Options{NoProactivePlacement: true})
	}
	// The bench's batch-solve instance, and its Appro-S variant.
	if !testing.Short() {
		add("bench seed=1", benchProblem(t, 1, 5), Options{})
		add("bench seed=2", benchProblem(t, 2, 5), Options{})
		add("bench F=1", benchProblem(t, 1, 1), Options{})
	}

	// Hand-built.
	for _, proactive := range []bool{true, false} {
		opt := Options{NoProactivePlacement: !proactive}
		add(fmt.Sprintf("squeezed proactive=%v", proactive), squeezedProblem(t), opt)
		add(fmt.Sprintf("relayed proactive=%v", proactive), relayedProblem(t), opt)
		add(fmt.Sprintf("forked proactive=%v", proactive), forkedProblem(t), opt)
		for k := 1; k <= 2; k++ {
			// One query demands dataset 0 twice (with two selectivities; the
			// delay model prices both by the first): its second demand sees
			// the first's tentative opening. Cloudlet 1 has room for one.
			twice := starProblem(t,
				[]starNode{{5, 0.5, 0.1}, {30, 0.5, 0.3}, {30, 0.6, 0.3}},
				[]float64{4, 2},
				[]workload.Query{
					{Demands: []workload.Demand{{Dataset: 0, Selectivity: 0.2}, {Dataset: 1, Selectivity: 0.5}, {Dataset: 0, Selectivity: 0.9}},
						ComputePerGB: 1, DeadlineSec: 30},
					{Demands: demands(0), ComputePerGB: 1, DeadlineSec: 30},
					{Demands: demands(1, 0), ComputePerGB: 2, DeadlineSec: 30},
					{Demands: demands(0, 0, 0), ComputePerGB: 3, DeadlineSec: 30},
				}, k)
			add(fmt.Sprintf("same dataset twice K=%d proactive=%v", k, proactive), twice, opt)
		}
		// Cloudlet 2 has no capacity: θ = +Inf. A query that needs nothing
		// (r = 0) passes its capacity check and prices it at 0·Inf.
		dead := starProblem(t,
			[]starNode{{6, 0.5, 0.2}, {0, 0.5, 0.1}, {6, 0.5, 0.3}},
			[]float64{2, 3},
			[]workload.Query{
				{Demands: demands(0, 1), ComputePerGB: 1, DeadlineSec: 20},
				{Demands: demands(0), ComputePerGB: 0, DeadlineSec: 20},
				{Demands: demands(1), ComputePerGB: 1e-12, DeadlineSec: 20},
				{Demands: demands(1, 0), ComputePerGB: 1, DeadlineSec: 20},
				{Demands: demands(0, 1), ComputePerGB: 1, DeadlineSec: 20},
			}, 2)
		add(fmt.Sprintf("zero-capacity node proactive=%v", proactive), dead, opt)
		// Queries 0–3 are one query four times, 4–5 another twice: every
		// round starts with exact ratio ties, which go to the lowest index.
		var same []workload.Query
		for i := 0; i < 4; i++ {
			same = append(same, workload.Query{Demands: demands(0, 1), ComputePerGB: 1, DeadlineSec: 20})
		}
		same = append(same,
			workload.Query{Demands: demands(1), ComputePerGB: 1, DeadlineSec: 20},
			workload.Query{Demands: demands(1), ComputePerGB: 1, DeadlineSec: 20})
		ties := starProblem(t,
			[]starNode{{8, 0.5, 0.2}, {8, 0.5, 0.2}, {8, 0.5, 0.2}, {4, 0.5, 0.1}},
			[]float64{2, 3}, same, 2)
		add(fmt.Sprintf("ratio ties proactive=%v", proactive), ties, opt)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireMatchesReference(t, tc.p, tc.opt, tc.algo)
		})
	}
}

// TestAscentPlansAThird pins the point of the admission loop on the bench
// instance: the same rounds as the reference, at most a third of its bundle
// plans.
func TestAscentPlansAThird(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the 500-node instance twice")
	}
	p := benchProblem(t, 1, 5)
	instrument.Enable()
	defer instrument.Disable()
	count := func(ascent func()) (rounds, plans int64) {
		before := instrument.Snapshot()
		ascent()
		after := instrument.Snapshot()
		return after["core.ascent_rounds"] - before["core.ascent_rounds"],
			after["core.bundles_priced"] - before["core.bundles_priced"]
	}
	rounds, plans := count(func() { ascend(p, Options{}, "appro-g") })
	refRounds, refPlans := count(func() { runReference(p, Options{}, "appro-g") })
	if rounds != refRounds {
		t.Fatalf("core.ascent_rounds %d, reference %d", rounds, refRounds)
	}
	if 3*plans > refPlans {
		t.Fatalf("core.bundles_priced %d, more than a third of the reference's %d", plans, refPlans)
	}
	t.Logf("core.ascent_rounds %d; core.bundles_priced %d, reference %d", rounds, plans, refPlans)
}
