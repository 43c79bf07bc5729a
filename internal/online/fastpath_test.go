package online

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// offerChecked prices arr with the reference scan (reference_test.go) at the
// exact state Offer is about to price it at — model time advanced, expired
// holds released — then offers it and requires the table path's decision,
// and on a rejection its classification, to equal the reference's. A
// rejection commits nothing, so the state it is classified at is still the
// state it was priced at.
func offerChecked(t *testing.T, e *Engine, arr Arrival) Decision {
	t.Helper()
	e.now = arr.AtSec
	e.drainReleases()
	wantOK, wantAs := e.planSlow(arr.Query)
	dec, err := e.Offer(arr)
	if err != nil {
		t.Fatalf("offer %d: %v", arr.Query, err)
	}
	if dec.Admitted != wantOK || !reflect.DeepEqual(dec.Assignments, wantAs) {
		t.Fatalf("offer %d at %.3fs diverges from the reference scan:\ntables    admitted=%v %+v\nreference admitted=%v %+v",
			arr.Query, arr.AtSec, dec.Admitted, dec.Assignments, wantOK, wantAs)
	}
	if !dec.Admitted {
		r, ds, n := e.ClassifyRejection(arr.Query)
		wr, wds, wn := e.classifyReference(arr.Query)
		if r != wr || ds != wds || n != wn {
			t.Fatalf("offer %d at %.3fs classification diverges: tables (%v, %d, %d) reference (%v, %d, %d)",
				arr.Query, arr.AtSec, r, ds, n, wr, wds, wn)
		}
	}
	return dec
}

// repairChecks counts what checkRepairs compared.
type repairChecks struct {
	picks, fresh, expired, evictions int
}

// checkRepairs makes every query repair e plans from here on answer to the
// reference planner (reference_test.go), run at the state the plan was made
// in — before it is applied, which planning leaves untouched but for the
// θ cache's bit-exact entries: the same moves, node, opening and hold alike,
// and the same eviction.
func checkRepairs(t *testing.T, e *Engine) *repairChecks {
	t.Helper()
	c := new(repairChecks)
	e.repairPlanned = func(q workload.QueryID, datasets []workload.DatasetID,
		holds map[workload.DatasetID]float64, moves []repairMove, ok bool) {
		want, wantOK := e.planRepairReference(q, datasets, holds)
		if ok != wantOK || !slices.Equal(moves, want) {
			t.Fatalf("repair of query %d at %.3fs diverges from the reference:\ntables    ok=%v %+v\nreference ok=%v %+v",
				q, e.now, ok, moves, wantOK, want)
		}
		c.picks += len(moves)
		for _, mv := range moves {
			if mv.fresh {
				c.fresh++
			}
			if !mv.active {
				c.expired++
			}
		}
		if !ok {
			c.evictions++
		}
	}
	return c
}

// requireRepairsChecked fails unless the checked repairs covered moves that
// open a replica, moves of expired holds and evictions.
func requireRepairsChecked(t *testing.T, c *repairChecks) {
	t.Helper()
	if c.picks == 0 || c.fresh == 0 || c.expired == 0 || c.evictions == 0 {
		t.Fatalf("checked repairs %+v; the stream does not exercise every repair outcome", *c)
	}
}

// TestFastPathEquivalence is the check behind the byte-identity contract:
// every decision and every rejection classification the precomputed tables
// produce equals the reference scan's at the same engine state, and so does
// every failover repair plan (checkRepairs). It runs on one engine —
// planning is side-effect free, so the reference is taken just before each
// Offer — over seeded streams with crash/restore churn, and over
// a hand-built symmetric instance whose candidates price identically, which
// pins the lowest-node tie-break the table order does not give for free. Any
// divergence means the tables drifted from the pricing math they mirror.
//
// The small streams have short tables. The two on the bench's 500-node
// instance have 192 candidates a table on average, so pickFast's early exit
// skips most of a table; a third of their arrivals hold forever, so load
// builds up across the stream and θ differs from node to node. One runs with
// a forecast, whose preferred sites open at no replica price (rep = 0), and
// one without.
func TestFastPathEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 7, 21, 42} {
		t.Run(fmt.Sprintf("churn/seed=%d", seed), func(t *testing.T) {
			p, w := NewTestProblem(t, seed, 80)
			e := NewEngine(p, len(w.Queries), Options{})
			checkRepairs(t, e)
			churnStream(t, e, seed, len(w.Queries), false)
		})
	}
	bench := benchProblem(t)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"bench 500 nodes", Options{}},
		{"bench 500 nodes forecast", Options{Forecast: bench.Queries[:100]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(bench, 2*len(bench.Queries), tc.opt)
			if tc.opt.Forecast != nil && !hasPreferred(e.fast) {
				t.Fatal("the forecast marked no candidate preferred; rep = 0 is not exercised")
			}
			c := checkRepairs(t, e)
			churnStream(t, e, 11, 2*len(bench.Queries), true)
			requireRepairsChecked(t, c)
		})
	}
	t.Run("tie", testFastPathTie)
}

// churnStream offers n arrivals through offerChecked, query i mod |Q| for the
// i-th, at exponential gaps with exponential holds (mean 50 s). Every ninth
// arrival is preceded by liveness churn: a random compute node crashes, or the
// oldest crashed one is restored. With forever, every third arrival holds its
// capacity for good. The stream must both admit and reject.
func churnStream(t *testing.T, e *Engine, seed int64, n int, forever bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	compute := e.p.Cloud.ComputeNodes()
	var down []graph.NodeID
	at := 0.0
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64()
		hold := rng.ExpFloat64() * 50
		if forever && i%3 == 0 {
			hold = 0
		}
		if i%9 == 4 {
			if len(down) > 0 && rng.Intn(2) == 0 {
				v := down[0]
				down = down[1:]
				if err := e.Restore(v); err != nil {
					t.Fatal(err)
				}
			} else {
				v := compute[rng.Intn(len(compute))]
				wasDown := e.Liveness().IsDown(v)
				if _, err := e.Crash(at, v); err != nil {
					t.Fatalf("crash(%d): %v", v, err)
				}
				if !wasDown {
					down = append(down, v)
				}
			}
		}
		offerChecked(t, e, Arrival{Query: workload.QueryID(i % len(e.p.Queries)), AtSec: at, HoldSec: hold})
	}
	if res := e.Result(); res.Rejected == 0 || res.Admitted == 0 {
		t.Fatalf("%d admitted, %d rejected; stream exercises one outcome only", res.Admitted, res.Rejected)
	}
}

// tieTopology is a star: base station 0 is every query's home, cloudlets
// 1..4 hang off it with equal capacity, equal processing delay and equal
// link delay, so on an idle engine all four price any demand identically.
const tieTopology = `{"nodes": [
 {"id": 0, "kind": "basestation"},
 {"id": 1, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 2, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 3, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 4, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5}],
 "links": [
 {"from": 0, "to": 1, "delay_per_gb": 0.25},
 {"from": 0, "to": 2, "delay_per_gb": 0.25},
 {"from": 0, "to": 3, "delay_per_gb": 0.25},
 {"from": 0, "to": 4, "delay_per_gb": 0.25}]}`

// testFastPathTie drives exact ties through the equivalence check. The
// candidate table is in delay order with node ID as the secondary key, but
// pickFast's argmin must not depend on that: the reference's ascending
// strict-< scan resolves a cost tie to the lowest node ID, and so must the
// tables — among all four idle cloudlets, and among the survivors once the
// winner is loaded or down. Capacity 4 against needs of 2 and 3 makes nodes
// fill exactly (the 1e-9 headroom epsilon decides) and makes rejections tie
// on remaining capacity (K=3) or on delay under the K bound (K=2), so the
// classification tie-breaks are pinned the same way.
func testFastPathTie(t *testing.T) {
	top, err := topology.Load(strings.NewReader(tieTopology))
	if err != nil {
		t.Fatal(err)
	}
	w := &workload.Workload{
		Datasets: []workload.Dataset{{ID: 0, SizeGB: 2, Origin: 1}, {ID: 1, SizeGB: 3, Origin: 2}},
	}
	for i := 0; i < 8; i++ {
		q := workload.Query{
			ID: workload.QueryID(i), Home: 0, ComputePerGB: 1, DeadlineSec: 10,
			Demands: []workload.Demand{{Dataset: workload.DatasetID(i % 2), Selectivity: 0.5}},
		}
		if i%4 == 3 {
			q.Demands = append(q.Demands, workload.Demand{Dataset: workload.DatasetID((i + 1) % 2), Selectivity: 0.5})
		}
		w.Queries = append(w.Queries, q)
	}
	for _, k := range []int{2, 3} {
		p, err := placement.NewProblem(cluster.New(top), w, k)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(p, len(w.Queries), Options{})
		checkRepairs(t, e)
		cands := e.fast.perQuery[0][0].Admissible()
		if len(cands) != 4 {
			t.Fatalf("query 0 has %d candidates, want all 4 cloudlets", len(cands))
		}
		for _, c := range cands[1:] {
			if c.Slack != cands[0].Slack {
				t.Fatalf("instance is not symmetric: candidate %+v vs %+v", c, cands[0])
			}
		}
		// Idle engine: a four-way tie.
		if dec := offerChecked(t, e, Arrival{Query: 0, AtSec: 0, HoldSec: 50}); !dec.Admitted || dec.Assignments[0].Node != 1 {
			t.Fatalf("K=%d: four-way tie resolved to %+v, want node 1", k, dec)
		}
		// Node 1 won every tie so far; with it down the survivors tie.
		if _, err := e.Crash(1, 1); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(w.Queries); i++ {
			offerChecked(t, e, Arrival{Query: workload.QueryID(i), AtSec: float64(i + 1), HoldSec: 3})
		}
		if err := e.Restore(1); err != nil {
			t.Fatal(err)
		}
		// Every hold has expired and the replicas left behind differ per
		// node; hold-forever offers now saturate the cloud.
		for i := range w.Queries {
			offerChecked(t, e, Arrival{Query: workload.QueryID(i), AtSec: float64(100 + i)})
		}
		if e.Result().Rejected == 0 {
			t.Fatalf("K=%d: saturation rejected nothing; no classification was compared", k)
		}
		// All four down: every deadline-feasible node is a crashed one.
		for v := graph.NodeID(4); v >= 1; v-- {
			if _, err := e.Crash(200, v); err != nil {
				t.Fatal(err)
			}
		}
		offerChecked(t, e, Arrival{Query: 0, AtSec: 201})
	}
}

// TestFastPathZeroAlloc pins the fast path's allocation contract: pricing a
// rejected offer and classifying the rejection allocate nothing, and an
// admitted offer allocates exactly the assignment slice the decision keeps.
// ci.sh runs this as a hard gate — a regression here is the GC pressure the
// precomputed tables exist to eliminate.
func TestFastPathZeroAlloc(t *testing.T) {
	p, w := NewTestProblem(t, 5, 120)
	e := NewEngine(p, len(w.Queries), Options{})

	// Admitted path, measured before any state accumulates: planFast does
	// not commit, so repeated calls are idempotent.
	var admitQ workload.QueryID = -1
	for i := range w.Queries {
		if ok, as := e.planFast(workload.QueryID(i)); ok && len(as) > 0 {
			admitQ = workload.QueryID(i)
			break
		}
	}
	if admitQ == -1 {
		t.Fatal("no admittable query on a fresh engine; scenario too weak")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		e.planFast(admitQ)
	}); allocs != 1 {
		t.Errorf("admitted planFast allocates %.1f objects/op, want exactly 1 (the returned assignments)", allocs)
	}

	// Saturate with hold-forever offers until rejections exist.
	var rejQ workload.QueryID = -1
	for i := range w.Queries {
		dec, err := e.Offer(Arrival{Query: workload.QueryID(i), AtSec: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Admitted {
			rejQ = workload.QueryID(i)
		}
	}
	if rejQ == -1 {
		t.Fatal("hold-forever stream saturated nothing; scenario too weak")
	}
	if ok, _ := e.planFast(rejQ); ok {
		t.Fatalf("query %d re-plans as admittable on the saturated engine", rejQ)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		e.planFast(rejQ)
		e.classifyFast(rejQ)
	}); allocs != 0 {
		t.Errorf("rejection fast path allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkFastPathPlan plans offers with the table scan (fast) and with the
// full per-offer search it replaced (slow, the reference scan the equivalence
// test compares against), on the same engine state. The unnamed pair prices
// one saturated-engine rejection per op on the small instance: the
// ci.sh-gated zero-alloc path. v500 is the bench's 500-node instance after a
// hold-forever pass over half its queries; each op plans the next query in
// turn, so admissions (one allocation each: the assignments) and rejections
// mix, and the candidate tables are as long as the daemon's.
func BenchmarkFastPathPlan(b *testing.B) {
	modes := []struct {
		name string
		plan func(*Engine, workload.QueryID) (bool, []placement.Assignment)
	}{{"fast", (*Engine).planFast}, {"slow", (*Engine).planSlow}}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			p, w := NewTestProblem(b, 5, 120)
			e := NewEngine(p, len(w.Queries), Options{})
			var rejQ workload.QueryID = -1
			for i := range w.Queries {
				dec, err := e.Offer(Arrival{Query: workload.QueryID(i), AtSec: float64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if !dec.Admitted {
					rejQ = workload.QueryID(i)
				}
			}
			if rejQ == -1 {
				b.Fatal("hold-forever stream saturated nothing")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mode.plan(e, rejQ)
			}
		})
	}
	b.Run("v500", func(b *testing.B) {
		p := benchProblem(b)
		nq := len(p.Queries)
		e := NewEngine(p, 2*nq, Options{})
		for i := 0; i < nq; i += 2 {
			if _, err := e.Offer(Arrival{Query: workload.QueryID(i), AtSec: float64(i)}); err != nil {
				b.Fatal(err)
			}
		}
		for _, mode := range modes {
			b.Run(mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mode.plan(e, workload.QueryID(i%nq))
				}
			})
		}
	})
}

// TestFastPathStats covers the /state payload source: an engine reports its
// table sizes, capacity shards and moving counters.
func TestFastPathStats(t *testing.T) {
	p, w := NewTestProblem(t, 6, 30)
	e := NewEngine(p, len(w.Queries), Options{})
	st := e.FastPathStats()
	if st.Tables == 0 || st.Candidates == 0 {
		t.Fatalf("engine stats %+v, want non-empty tables", st)
	}
	if len(st.Shards) == 0 {
		t.Fatal("no capacity shards reported")
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Offer(Arrival{Query: workload.QueryID(i), AtSec: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.FastPathStats().Offers; got != 5 {
		t.Fatalf("fast path priced %d offers, want 5", got)
	}
	if _, err := e.Crash(100, p.Cloud.ComputeNodes()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Offer(Arrival{Query: 5, AtSec: 101}); err != nil {
		t.Fatal(err)
	}
	st = e.FastPathStats()
	if st.LiveGen == 0 || st.Refreshes == 0 {
		t.Fatalf("crash did not move the fence: %+v", st)
	}
}

// benchProblem is the 500-node instance of the bench's restart and
// batch-solve workloads.
func benchProblem(tb testing.TB) *placement.Problem { return lifeProblem(tb, 500) }

// lifeProblem is the bench's recovery instance (seed 1, 40 datasets, 400
// queries) at another network size, assembled as server.BuildInstance
// assembles it (internal/server imports this package, so the test cannot
// call it).
func lifeProblem(tb testing.TB, nodes int) *placement.Problem {
	tb.Helper()
	top := topology.MustGenerate(topology.ScaledConfig(nodes, 1))
	wc := workload.DefaultConfig()
	wc.Seed = 1
	wc.NumDatasets = 40
	wc.NumQueries = 400
	wc.MaxDatasetsPerQuery = 5
	p, err := placement.NewProblem(cluster.New(top), workload.MustGenerate(wc, top), 3)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// edgeTopology is a star around base station 0, every query's home. Cloudlets
// 2, 3, 5 and 6 are symmetric, so they give any demand the same delay and
// only the node ID orders them; 1 is nearer, 4 farther, and 7 has a slower
// processor behind the near link.
const edgeTopology = `{"nodes": [
 {"id": 0, "kind": "basestation"},
 {"id": 1, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 2, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 3, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 4, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 5, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 6, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 7, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.9}],
 "links": [
 {"from": 0, "to": 1, "delay_per_gb": 0.125},
 {"from": 0, "to": 2, "delay_per_gb": 0.25},
 {"from": 0, "to": 3, "delay_per_gb": 0.25},
 {"from": 0, "to": 4, "delay_per_gb": 0.75},
 {"from": 0, "to": 5, "delay_per_gb": 0.25},
 {"from": 0, "to": 6, "delay_per_gb": 0.25},
 {"from": 0, "to": 7, "delay_per_gb": 0.125}]}`

// edgeProblem puts three queries on edgeTopology: one with room for every
// node, so the four symmetric cloudlets tie on delay inside its admission
// table; one whose deadline is the last float below the tied delay, which
// the strict admission predicate refuses and the classification predicate's
// +1e-12 accepts; and one a whole 1e-9 short, which both refuse. The tied
// delay is read off a first Problem, and the deadlines are set in the
// workload of a second one before anything reads it.
func edgeProblem(t *testing.T) *placement.Problem {
	t.Helper()
	top, err := topology.Load(strings.NewReader(edgeTopology))
	if err != nil {
		t.Fatal(err)
	}
	ec := cluster.New(top)
	w := &workload.Workload{Datasets: []workload.Dataset{{ID: 0, SizeGB: 2, Origin: 1}}}
	for i := 0; i < 3; i++ {
		w.Queries = append(w.Queries, workload.Query{
			ID: workload.QueryID(i), Home: 0, ComputePerGB: 1, DeadlineSec: 10,
			Demands: []workload.Demand{{Dataset: 0, Selectivity: 0.5}},
		})
	}
	probe, err := placement.NewProblem(ec, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	tied, _ := probe.EvalDelay(0, 0, 2)
	w.Queries = slices.Clone(w.Queries)
	w.Queries[1].DeadlineSec = math.Nextafter(tied, 0)
	w.Queries[2].DeadlineSec = tied - 1e-9
	p, err := placement.NewProblem(ec, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ulpProblem is a star whose cloudlets 1 to 4 give the one query's demand
// the delays 1.25 + k ulps for k = 3, 2, 1, 0: ascending delay is descending
// node ID, and a table in node order prices them in the wrong order.
func ulpProblem(t *testing.T) *placement.Problem {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"nodes": [{"id": 0, "kind": "basestation"}`)
	for v := 1; v <= 4; v++ {
		fmt.Fprintf(&b, `, {"id": %d, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5}`, v)
	}
	b.WriteString(`], "links": [`)
	sep := ""
	for v := 1; v <= 4; v++ {
		link := 0.25 + float64(4-v)*0x1p-52 // 2 GB at 0.5 s/GB plus 1 GB of link: 1.25 + (4-v) ulps
		fmt.Fprintf(&b, `%s{"from": 0, "to": %d, "delay_per_gb": %s}`, sep, v, strconv.FormatFloat(link, 'g', -1, 64))
		sep = ", "
	}
	b.WriteString(`]}`)
	top, err := topology.Load(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	w := &workload.Workload{
		Datasets: []workload.Dataset{{ID: 0, SizeGB: 2, Origin: 1}},
		Queries: []workload.Query{{ID: 0, Home: 0, ComputePerGB: 1, DeadlineSec: 10,
			Demands: []workload.Demand{{Dataset: 0, Selectivity: 0.5}}}},
	}
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// freshProblem is p assembled again: the same instance, no table built yet.
func freshProblem(tb testing.TB, p *placement.Problem) *placement.Problem {
	tb.Helper()
	fresh, err := placement.NewProblem(p.Cloud, &workload.Workload{Datasets: p.Datasets, Queries: p.Queries}, p.MaxReplicas)
	if err != nil {
		tb.Fatal(err)
	}
	return fresh
}

// requireSameTables compares the engine's tables with the reference's field
// for field, floats by their bits, naming the first difference: the
// admission set entry by entry, its delay terms as sizeW·slack, the
// classification set as a set of nodes, each with EvalDelay/deadline's slack.
func requireSameTables(t *testing.T, e *Engine, want [][]refDemand) {
	t.Helper()
	f := e.fast
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	tables, candidates := 0, 0
	for qi := range want {
		tables += len(want[qi])
		for di := range want[qi] {
			candidates += len(want[qi][di].cands)
		}
	}
	if f.tables != tables || f.candidates != candidates {
		t.Fatalf("%d tables / %d candidates, reference %d / %d", f.tables, f.candidates, tables, candidates)
	}
	if len(f.perQuery) != len(want) {
		t.Fatalf("tables for %d queries, reference %d", len(f.perQuery), len(want))
	}
	for qi := range want {
		if len(f.perQuery[qi]) != len(want[qi]) {
			t.Fatalf("query %d: %d demand tables, reference %d", qi, len(f.perQuery[qi]), len(want[qi]))
		}
		deadline := e.p.Queries[qi].DeadlineSec
		for di := range want[qi] {
			g, w := &f.perQuery[qi][di], &want[qi][di]
			if len(g.Admissible()) != len(w.cands) || len(g.Feasible) != len(w.class) {
				t.Fatalf("query %d demand %d: %d candidates / %d classification entries, reference %d / %d",
					qi, di, len(g.Admissible()), len(g.Feasible), len(w.cands), len(w.class))
			}
			if g.dataset != w.dataset || !same(g.need, w.need) || !same(g.size25, w.size25) || g.Closest != w.bestFinite {
				t.Fatalf("query %d demand %d: table %+v, reference %+v", qi, di, *g, *w)
			}
			for i, wc := range w.cands {
				gc := g.Admissible()[i]
				if graph.NodeID(gc.Node) != wc.node || !same(g.sizeW*gc.Slack, wc.delayCost) || g.preferred[gc.Node] != wc.preferred {
					t.Fatalf("query %d demand %d: candidate %d = %+v (delay term %v), reference %+v",
						qi, di, i, gc, g.sizeW*gc.Slack, wc)
				}
			}
			class := slices.Clone(g.Feasible)
			slices.SortFunc(class, func(a, b placement.Candidate) int { return cmp.Compare(a.Node, b.Node) })
			for i, wc := range w.class {
				if gc := class[i]; graph.NodeID(gc.Node) != wc.node || !same(gc.Slack, wc.delay/deadline) {
					t.Fatalf("query %d demand %d: classification entry %d = %+v, reference %+v", qi, di, i, gc, wc)
				}
			}
		}
	}
}

func hasPreferred(f *fastPath) bool {
	for _, demands := range f.perQuery {
		for _, d := range demands {
			for _, c := range d.Admissible() {
				if d.preferred[c.Node] {
					return true
				}
			}
		}
	}
	return false
}

// TestFastPathTablesMatchReference is the "dump and cmp" of the engine's
// tables: on every instance, the tables built from EvalDelay and
// MeetsDeadline alone (newFastPathEvalReference) equal, field for field, the
// engine's over the Problem's candidate tables built at one, two and eight
// workers, each on a Problem of its own — so every decision priced off them,
// and every WAL and trace byte, is what it was. The bench's recovery instance
// runs at 30, 500 and 2 000 nodes (2 000 compute-node positions take more of
// each key's low bits than 500 do), the forecast engine marks preferred
// sites, one hand-built instance ties delays exactly and sets a deadline
// inside the classification epsilon, and another sets them an ulp apart
// against node order. (The table build's own oracle is placement's
// TestCandidateTablesMatchEvalDelay.)
func TestFastPathTablesMatchReference(t *testing.T) {
	defaultP, _ := NewTestProblem(t, 5, 120)
	forecastP, forecastW := NewTestProblem(t, 9, 80)
	for _, tc := range []struct {
		name string
		p    *placement.Problem
		opt  Options
	}{
		{"default", defaultP, Options{}},
		{"life 30 nodes", lifeProblem(t, 30), Options{}},
		{"bench 500 nodes", benchProblem(t), Options{}},
		{"life 2000 nodes", lifeProblem(t, 2000), Options{}},
		{"forecast", forecastP, Options{Forecast: forecastW.Queries[:40], MaxUtilization: 0.8}},
		{"ties and the classification epsilon", edgeProblem(t), Options{}},
		{"delays an ulp apart", ulpProblem(t), Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			want := newFastPathEvalReference(NewEngine(tc.p, len(tc.p.Queries), tc.opt))
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				e := NewEngine(freshProblem(t, tc.p), len(tc.p.Queries), tc.opt)
				requireSameTables(t, e, want)
				if tc.opt.Forecast != nil && !hasPreferred(e.fast) {
					t.Fatal("the forecast marked no candidate preferred; the field is not exercised")
				}
			}
		})
	}
	t.Run("what the hand-built instance pins", func(t *testing.T) {
		order := func(cs []placement.Candidate) []graph.NodeID {
			var out []graph.NodeID
			for _, c := range cs {
				out = append(out, graph.NodeID(c.Node))
			}
			return out
		}
		f := NewEngine(edgeProblem(t), 3, Options{}).fast
		if got, want := order(f.perQuery[0][0].Admissible()), []graph.NodeID{1, 2, 3, 5, 6, 4, 7}; !reflect.DeepEqual(got, want) {
			t.Fatalf("admission order %v, want %v (2, 3, 5 and 6 tie on delay)", got, want)
		}
		if d := f.perQuery[1][0]; d.Strict != 1 || len(d.Feasible) != 5 {
			t.Fatalf("deadline one ulp under the tie: %d candidates, %d classification entries; want 1 and 5 (the +1e-12)",
				d.Strict, len(d.Feasible))
		}
		if d := f.perQuery[2][0]; d.Strict != 1 || len(d.Feasible) != 1 {
			t.Fatalf("deadline 1e-9 under the tie: %d candidates, %d classification entries; want 1 and 1",
				d.Strict, len(d.Feasible))
		}
		if got, want := order(NewEngine(ulpProblem(t), 1, Options{}).fast.perQuery[0][0].Admissible()), []graph.NodeID{4, 3, 2, 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("admission order %v, want %v (delays 1.25 + 0, 1, 2 and 3 ulps)", got, want)
		}
	})
}

// TestCandidateTablesAreDelayOrdered checks, table by table, what pickFast's
// early exit stands on: every admission candidate's delay (EvalDelay's) is
// finite, each table is strictly ascending by (delay, node), and the delay
// term sizeW·slack never decreases along it. On the bench's 500-node instance
// and on a forecast instance.
func TestCandidateTablesAreDelayOrdered(t *testing.T) {
	forecastP, forecastW := NewTestProblem(t, 9, 80)
	for _, tc := range []struct {
		name string
		p    *placement.Problem
		opt  Options
	}{
		{"bench 500 nodes", benchProblem(t), Options{}},
		{"forecast", forecastP, Options{Forecast: forecastW.Queries[:40], MaxUtilization: 0.8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(tc.p, len(tc.p.Queries), tc.opt)
			for qi, demands := range e.fast.perQuery {
				for di := range demands {
					d := &demands[di]
					prevDelay := 0.0
					cands := d.Admissible()
					for i, c := range cands {
						delay, _ := tc.p.EvalDelay(workload.QueryID(qi), d.dataset, graph.NodeID(c.Node))
						if math.IsNaN(delay) || math.IsInf(delay, 0) {
							t.Fatalf("query %d demand %d: candidate %d has delay %v", qi, di, i, delay)
						}
						if i > 0 {
							prev := cands[i-1]
							if !(prevDelay < delay || prevDelay == delay && prev.Node < c.Node) {
								t.Fatalf("query %d demand %d: candidate %d %+v (delay %v) does not follow %+v (delay %v) by (delay, node)",
									qi, di, i, c, delay, prev, prevDelay)
							}
							if !(d.sizeW*prev.Slack <= d.sizeW*c.Slack) {
								t.Fatalf("query %d demand %d: the delay term falls from %v to %v at candidate %d",
									qi, di, d.sizeW*prev.Slack, d.sizeW*c.Slack, i)
							}
						}
						prevDelay = delay
					}
				}
			}
		})
	}
}

// TestPickFastExitKeepsTies pins why pickFast's exit test is strict. Two
// delays one ulp apart can round to the same delay term. On an idle engine
// (θ = 0) at preferred sites (rep = 0) both candidates then price exactly that
// term, and the one later in delay order has the lower node ID, so the
// reference's ascending scan picks it. Exiting on delayCost >= bestCost would
// stop before pricing it.
func TestPickFastExitKeepsTies(t *testing.T) {
	e := NewEngine(edgeProblem(t), 3, Options{})
	const size, deadline = 2.0, 10.0
	delayCost := func(delay float64) float64 { return delayPriceWeight * size * (delay / deadline) }
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	d0 := 7.0
	for n := 0; delayCost(d0) != delayCost(up(d0)); n++ {
		if n == 64 {
			t.Fatal("no two adjacent delays from 7 s on share a delay term")
		}
		d0 = up(d0)
	}
	preferred := make([]bool, 8)
	preferred[5], preferred[2] = true, true
	d := fpDemand{dataset: 0, need: 1, size25: 0.25 * size, sizeW: delayPriceWeight * size, preferred: preferred,
		CandidateTable: &placement.CandidateTable{Strict: 2, Feasible: []placement.Candidate{
			{Index: 4, Node: 5, Slack: d0 / deadline},
			{Index: 1, Node: 2, Slack: up(d0) / deadline},
		}}}
	e.fast.scr.reset()
	if v, ok := e.pickFast(&d, nil, e.fast.capEps, &e.fast.scr); !ok || v != 2 {
		t.Fatalf("picked node %d (ok=%v) from two candidates that tie at %v; want node 2, the lower ID", v, ok, delayCost(d0))
	}
}

// fastPathBuildAllocs bounds what newFastPath allocates on a fresh copy of
// the bench instance at one worker, the Problem's candidate tables included:
// per query its tables and one array for their entries, a slab of the
// engine's records, the worker's scratch, the preferred-site sets and a few
// objects for the fastPath — 813 measured. Nothing per table or per
// candidate.
const fastPathBuildAllocs = 1100

// BenchmarkFastPathBuild times newFastPath on fresh copies of the bench's
// 500-node instance (1 151 tables, 221 181 candidates), each op building the
// copy's candidate tables too, and fails if one build allocates more than
// fastPathBuildAllocs objects.
func BenchmarkFastPathBuild(b *testing.B) {
	b.Run("v500", func(b *testing.B) {
		p := benchProblem(b)
		e := NewEngine(p, 10000, Options{})
		e.p = freshProblem(b, p)
		procs := runtime.GOMAXPROCS(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		newFastPath(e)
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		if got := after.Mallocs - before.Mallocs; got > fastPathBuildAllocs {
			b.Fatalf("one build allocates %d objects, want at most %d", got, fastPathBuildAllocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e.p = freshProblem(b, p)
			b.StartTimer()
			newFastPath(e)
		}
	})
}

// TestCandidateTablesBuiltOncePerProblem: the engine and the solver read one
// set of candidate tables. NewEngine builds them; Appro-G, twice on the same
// Problem, builds none.
func TestCandidateTablesBuiltOncePerProblem(t *testing.T) {
	instrument.Enable()
	defer instrument.Disable()
	p, _ := NewTestProblem(t, 5, 120)
	before := instrument.Snapshot()["placement.candidate_table_builds"]
	e := NewEngine(p, len(p.Queries), Options{})
	for i := 0; i < 2; i++ {
		if _, err := core.ApproG(p, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if builds := instrument.Snapshot()["placement.candidate_table_builds"] - before; builds != 1 {
		t.Fatalf("%d candidate table builds for an engine and two solves of one Problem, want 1", builds)
	}
	for qi, tables := range p.CandidateTables() {
		for di := range tables {
			if class := e.fast.perQuery[qi][di].Feasible; len(class) > 0 && &class[0] != &tables[di].Feasible[0] {
				t.Fatalf("query %d demand %d: the engine's table is not the Problem's", qi, di)
			}
		}
	}
}

// TestClassifyFastLociInNodeOrder pins the loci classifyFast reads off a
// delay-ordered table where delay order is the reverse of node order: four
// cloudlets whose delays fall as their IDs rise, equal in capacity. A query
// that fits on none is a capacity rejection at the lowest of the four tied
// for room; with all four down, the same arrival that fit is a crash
// rejection at the lowest crashed node — both where the node-ascending
// generic scan puts them, not at the first node of the table.
func TestClassifyFastLociInNodeOrder(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"nodes": [{"id": 0, "kind": "basestation"}`)
	for v := 1; v <= 4; v++ {
		fmt.Fprintf(&b, `, {"id": %d, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5}`, v)
	}
	b.WriteString(`], "links": [`)
	for v := 1; v <= 4; v++ {
		if v > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"from": 0, "to": %d, "delay_per_gb": %g}`, v, 0.5-0.1*float64(v))
	}
	b.WriteString(`]}`)
	top, err := topology.Load(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	w := &workload.Workload{
		Datasets: []workload.Dataset{{ID: 0, SizeGB: 2, Origin: 1}},
		Queries: []workload.Query{
			{ID: 0, Home: 0, ComputePerGB: 1, DeadlineSec: 10, Demands: []workload.Demand{{Dataset: 0, Selectivity: 0.5}}},
			{ID: 1, Home: 0, ComputePerGB: 3, DeadlineSec: 10, Demands: []workload.Demand{{Dataset: 0, Selectivity: 0.5}}},
		},
	}
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p, 2, Options{})
	var order []graph.NodeID
	for _, c := range e.fast.perQuery[0][0].Feasible {
		order = append(order, graph.NodeID(c.Node))
	}
	if want := []graph.NodeID{4, 3, 2, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("table order %v, want %v", order, want)
	}
	classify := func(q workload.QueryID, reason instrument.Reason, node graph.NodeID) {
		t.Helper()
		gr, gds, gn := e.classifyFast(q)
		wr, wds, wn := e.classifyReference(q)
		if gr != wr || gds != wds || gn != wn {
			t.Fatalf("query %d: classifyFast %v/%d/%d, reference %v/%d/%d", q, gr, gds, gn, wr, wds, wn)
		}
		if gr != reason || gn != node {
			t.Fatalf("query %d: %v at node %d, want %v at node %d", q, gr, gn, reason, node)
		}
	}
	classify(1, instrument.ReasonCapacity, 1) // needs 6 GHz of 4 everywhere
	for v := graph.NodeID(1); v <= 4; v++ {
		if _, err := e.Crash(0, v); err != nil {
			t.Fatal(err)
		}
	}
	classify(0, instrument.ReasonNodeCrashed, 1)
}
