package placement

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// scaled builds the instance internal/experiments builds for one figure cell
// (seed, |V|, F), K = 3; with 500 nodes, 40 datasets, 400 queries and F = 5
// it is the bench's instance.
func scaled(tb testing.TB, seed int64, nodes, nd, nq, f int, split bool) *Problem {
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
	p, err := NewProblem(cluster.New(top), w, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// star hangs cloudlets 1..len(links) off base station 0, each with the given
// d(v) and link delay per GB, and puts the queries on it, all homed at 0, over
// one 2 GB dataset.
func star(tb testing.TB, proc, links []float64, queries []workload.Query) *Problem {
	tb.Helper()
	var b strings.Builder
	b.WriteString(`{"nodes": [{"id": 0, "kind": "basestation"}`)
	for i := range links {
		fmt.Fprintf(&b, `, {"id": %d, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": %s}`,
			i+1, strconv.FormatFloat(proc[i], 'g', -1, 64))
	}
	b.WriteString(`], "links": [`)
	for i, l := range links {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"from": 0, "to": %d, "delay_per_gb": %s}`, i+1, strconv.FormatFloat(l, 'g', -1, 64))
	}
	b.WriteString(`]}`)
	top, err := topology.Load(strings.NewReader(b.String()))
	if err != nil {
		tb.Fatal(err)
	}
	w := &workload.Workload{Datasets: []workload.Dataset{{ID: 0, SizeGB: 2, Origin: 1}}}
	for i, q := range queries {
		q.ID = workload.QueryID(i)
		q.Demands = []workload.Demand{{Dataset: 0, Selectivity: 0.5}}
		q.ComputePerGB = 1
		w.Queries = append(w.Queries, q)
	}
	p, err := NewProblem(cluster.New(top), w, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// ulpProblem gives the one query's demand, at cloudlets 1 to 4, the delays
// 1.25 + k ulps for k = 3, 2, 1, 0: ascending delay is descending node ID.
// Cloudlet 5, at 5 s, stretches the set's delay range so that the four share
// the build's first bucket, in node order: only the insertion pass puts them
// in delay order.
func ulpProblem(tb testing.TB) *Problem {
	links := make([]float64, 5)
	for i := range 4 {
		links[i] = 0.25 + float64(3-i)*0x1p-52 // 2 GB at 0.5 s/GB plus 1 GB of link
	}
	links[4] = 4
	return star(tb, []float64{0.5, 0.5, 0.5, 0.5, 0.5}, links, []workload.Query{{DeadlineSec: 10}})
}

// tiedProblem: four cloudlets (2, 3, 5, 6) tie on delay, 1 is nearer, 4
// farther and 7 slower behind the near link. Query 0 has room for all; query
// 1's deadline is the last float below the tied delay, which the strict
// admission predicate refuses and MeetsDeadline's +1e-12 accepts; query 2's
// is a whole 1e-9 short, which both refuse.
func tiedProblem(tb testing.TB) *Problem {
	proc := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.9}
	links := []float64{0.125, 0.25, 0.25, 0.75, 0.25, 0.25, 0.125}
	tied := 2*0.5 + 2*0.5*0.25 // cloudlet 2's delay, as evalDelay computes it
	return star(tb, proc, links, []workload.Query{
		{DeadlineSec: 10}, {DeadlineSec: math.Nextafter(tied, 0)}, {DeadlineSec: tied - 1e-9},
	})
}

// TestCandidateTablesMatchEvalDelay is the oracle of the table build: on the
// bench's instance, every cell of Figs. 2–5 and the hand-built stars, every
// table holds exactly the nodes MeetsDeadline accepts, the ones meeting the
// deadline strictly first, all in (delay, node) order by a comparison sort of
// EvalDelay's delays, each with EvalDelay/deadline's bits as its slack, and
// names the closest finite-delay node as a node-ascending scan finds it.
func TestCandidateTablesMatchEvalDelay(t *testing.T) {
	type instance struct {
		name string
		p    *Problem
	}
	cases := []instance{
		{"bench", scaled(t, 1, 500, 40, 400, 5, false)},
		{"delays an ulp apart", ulpProblem(t)},
		{"ties and the classification epsilon", tiedProblem(t)},
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, size := range []int{20, 50, 80} {
			cases = append(cases,
				instance{fmt.Sprintf("fig2 V=%d seed=%d", size, seed), scaled(t, seed, size, 12, 60, 5, true)},
				instance{fmt.Sprintf("fig3 V=%d seed=%d", size, seed), scaled(t, seed, size, 12, 60, 5, false)})
		}
		for _, f := range []int{1, 3} { // F = 5 at 30 nodes is Figs. 3 and 5's cell
			cases = append(cases, instance{fmt.Sprintf("fig4 F=%d seed=%d", f, seed), scaled(t, seed, 30, 12, 60, f, false)})
		}
		cases = append(cases, instance{fmt.Sprintf("fig4-5 F=5 seed=%d", seed), scaled(t, seed, 30, 12, 60, 5, false)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			tables := p.CandidateTables()
			compute := p.Cloud.ComputeNodes()
			entries := 0
			for qi := range p.Queries {
				q := &p.Queries[qi]
				if len(tables[qi]) != len(q.Demands) {
					t.Fatalf("query %d: %d tables for %d demands", qi, len(tables[qi]), len(q.Demands))
				}
				for di, dm := range q.Demands {
					type ref struct {
						i      int
						delay  float64
						strict bool
					}
					var want []ref
					closest, closestDelay := graph.NodeID(-1), math.Inf(1)
					for i, v := range compute {
						delay, _ := p.EvalDelay(q.ID, dm.Dataset, v)
						if !math.IsInf(delay, 1) && delay < closestDelay {
							closest, closestDelay = v, delay
						}
						if p.MeetsDeadline(q.ID, dm.Dataset, v) {
							want = append(want, ref{i, delay, delay <= q.DeadlineSec})
						}
					}
					slices.SortFunc(want, func(a, b ref) int {
						if c := cmp.Compare(a.delay, b.delay); c != 0 {
							return c
						}
						return cmp.Compare(a.i, b.i)
					})
					tab := &tables[qi][di]
					if len(tab.Feasible) != len(want) {
						t.Fatalf("query %d demand %d: %d feasible nodes, want %d", qi, di, len(tab.Feasible), len(want))
					}
					strict := 0
					for j, w := range want {
						if w.strict {
							if strict != j {
								t.Fatalf("query %d demand %d: entry %d meets the deadline after one that does not", qi, di, j)
							}
							strict++
						}
						got := tab.Feasible[j]
						if int(got.Index) != w.i || graph.NodeID(got.Node) != compute[w.i] {
							t.Fatalf("query %d demand %d: entry %d is node %d (position %d), want %d (position %d)",
								qi, di, j, got.Node, got.Index, compute[w.i], w.i)
						}
						if slack := w.delay / q.DeadlineSec; math.Float64bits(got.Slack) != math.Float64bits(slack) {
							t.Fatalf("query %d demand %d: entry %d slack %v, EvalDelay/deadline %v", qi, di, j, got.Slack, slack)
						}
					}
					if tab.Strict != strict || len(tab.Admissible()) != strict {
						t.Fatalf("query %d demand %d: %d strict entries, want %d", qi, di, tab.Strict, strict)
					}
					if tab.Closest != closest {
						t.Fatalf("query %d demand %d: closest node %d, want %d", qi, di, tab.Closest, closest)
					}
					entries += len(want)
				}
			}
			t.Logf("%d entries", entries)
		})
	}
	t.Run("what the hand-built instances pin", func(t *testing.T) {
		order := func(cs []Candidate) []graph.NodeID {
			var out []graph.NodeID
			for _, c := range cs {
				out = append(out, graph.NodeID(c.Node))
			}
			return out
		}
		if got, want := order(ulpProblem(t).CandidateTables()[0][0].Admissible()), []graph.NodeID{4, 3, 2, 1, 5}; !slices.Equal(got, want) {
			t.Fatalf("admission order %v, want %v (delays 1.25 + 0, 1, 2 and 3 ulps, then 5)", got, want)
		}
		tabs := tiedProblem(t).CandidateTables()
		if got, want := order(tabs[0][0].Admissible()), []graph.NodeID{1, 2, 3, 5, 6, 4, 7}; !slices.Equal(got, want) {
			t.Fatalf("admission order %v, want %v (2, 3, 5 and 6 tie on delay)", got, want)
		}
		if tab := tabs[1][0]; tab.Strict != 1 || len(tab.Feasible) != 5 {
			t.Fatalf("deadline one ulp under the tie: %d strict, %d feasible; want 1 and 5 (the +1e-12)", tab.Strict, len(tab.Feasible))
		}
		if tab := tabs[2][0]; tab.Strict != 1 || len(tab.Feasible) != 1 {
			t.Fatalf("deadline 1e-9 under the tie: %d strict, %d feasible; want 1 and 1", tab.Strict, len(tab.Feasible))
		}
	})
}

// TestCandidateTablesBuiltOnce races sixteen first readers on a cold Problem:
// one build, and every reader gets its tables.
func TestCandidateTablesBuiltOnce(t *testing.T) {
	instrument.Enable()
	defer instrument.Disable()
	p := scaled(t, 1, 100, 12, 60, 5, false)
	before := statTableBuilds.Value()
	got := make([][][]CandidateTable, 16)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = p.CandidateTables()
		}()
	}
	close(start)
	wg.Wait()
	if builds := statTableBuilds.Value() - before; builds != 1 {
		t.Fatalf("%d table builds for 16 cold readers, want 1", builds)
	}
	for i := range got {
		if &got[i][0][0] != &got[0][0][0] {
			t.Fatalf("reader %d got tables of its own", i)
		}
	}
}
