package online

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/graph"
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

// TestFastPathEquivalence is the check behind the byte-identity contract:
// every decision and every rejection classification the precomputed tables
// produce equals the reference scan's at the same engine state. It runs on
// one engine — planning is side-effect free, so the reference is taken just
// before each Offer — over seeded streams with crash/restore churn, and over
// a hand-built symmetric instance whose candidates price identically, which
// pins the lowest-node tie-break the table order does not give for free. Any
// divergence means the tables drifted from the pricing math they mirror.
func TestFastPathEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 7, 21, 42} {
		t.Run(fmt.Sprintf("churn/seed=%d", seed), func(t *testing.T) {
			p, w := NewTestProblem(t, seed, 80)
			e := NewEngine(p, len(w.Queries), Options{})
			rng := rand.New(rand.NewSource(seed))
			compute := p.Cloud.ComputeNodes()
			var down []graph.NodeID
			at := 0.0
			for i := range w.Queries {
				at += rng.ExpFloat64()
				hold := rng.ExpFloat64() * 50
				if i%9 == 4 {
					// Liveness churn: alternate crashing a random node with
					// restoring the oldest crashed one.
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
				offerChecked(t, e, Arrival{Query: workload.QueryID(i), AtSec: at, HoldSec: hold})
			}
			if res := e.Result(); res.Rejected == 0 || res.Admitted == 0 {
				t.Fatalf("%d admitted, %d rejected; stream exercises one outcome only", res.Admitted, res.Rejected)
			}
		})
	}
	t.Run("tie", testFastPathTie)
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
		cands := e.fast.perQuery[0][0].cands
		if len(cands) != 4 {
			t.Fatalf("query 0 has %d candidates, want all 4 cloudlets", len(cands))
		}
		for _, c := range cands[1:] {
			if c.delay != cands[0].delay || c.delayCost != cands[0].delayCost {
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

// BenchmarkFastPathPlan prices one saturated-engine offer per op, table scan
// against the full per-offer search it replaced, on the same engine state.
// The fast side is the ci.sh-gated zero-alloc path; the slow side is the
// reference scan the equivalence test compares against.
func BenchmarkFastPathPlan(b *testing.B) {
	for _, mode := range []struct {
		name string
		plan func(*Engine, workload.QueryID) (bool, []placement.Assignment)
	}{{"fast", (*Engine).planFast}, {"slow", (*Engine).planSlow}} {
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
// batch-solve workloads, assembled as server.BuildInstance assembles it
// (internal/server imports this package, so the test cannot call it).
func benchProblem(tb testing.TB) *placement.Problem {
	tb.Helper()
	top := topology.MustGenerate(topology.ScaledConfig(500, 1))
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
// +1e-12 accepts; and one a whole 1e-9 short, which both refuse.
func edgeProblem(t *testing.T) *placement.Problem {
	t.Helper()
	top, err := topology.Load(strings.NewReader(edgeTopology))
	if err != nil {
		t.Fatal(err)
	}
	w := &workload.Workload{Datasets: []workload.Dataset{{ID: 0, SizeGB: 2, Origin: 1}}}
	for i := 0; i < 3; i++ {
		w.Queries = append(w.Queries, workload.Query{
			ID: workload.QueryID(i), Home: 0, ComputePerGB: 1, DeadlineSec: 10,
			Demands: []workload.Demand{{Dataset: 0, Selectivity: 0.5}},
		})
	}
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	tied, _ := p.EvalDelay(0, 0, 2)
	p.Queries[1].DeadlineSec = math.Nextafter(tied, 0)
	p.Queries[2].DeadlineSec = tied - 1e-9
	return p
}

// requireSameTables compares two builds field for field, naming the first
// difference.
func requireSameTables(t *testing.T, got, want *fastPath) {
	t.Helper()
	if got.tables != want.tables || got.candidates != want.candidates {
		t.Fatalf("%d tables / %d candidates, reference %d / %d", got.tables, got.candidates, want.tables, want.candidates)
	}
	if !reflect.DeepEqual(got.capEps, want.capEps) || !reflect.DeepEqual(got.capMaxU, want.capMaxU) {
		t.Fatal("capacity bounds differ from the reference's")
	}
	if len(got.perQuery) != len(want.perQuery) {
		t.Fatalf("tables for %d queries, reference %d", len(got.perQuery), len(want.perQuery))
	}
	for qi := range want.perQuery {
		if len(got.perQuery[qi]) != len(want.perQuery[qi]) {
			t.Fatalf("query %d: %d demand tables, reference %d", qi, len(got.perQuery[qi]), len(want.perQuery[qi]))
		}
		for di := range want.perQuery[qi] {
			g, w := got.perQuery[qi][di], want.perQuery[qi][di]
			if len(g.cands) != len(w.cands) || len(g.class) != len(w.class) {
				t.Fatalf("query %d demand %d: %d candidates / %d classification entries, reference %d / %d",
					qi, di, len(g.cands), len(g.class), len(w.cands), len(w.class))
			}
			for i := range w.cands {
				if g.cands[i] != w.cands[i] {
					t.Fatalf("query %d demand %d: candidate %d = %+v, reference %+v", qi, di, i, g.cands[i], w.cands[i])
				}
			}
			for i := range w.class {
				if g.class[i] != w.class[i] {
					t.Fatalf("query %d demand %d: classification entry %d = %+v, reference %+v", qi, di, i, g.class[i], w.class[i])
				}
			}
			g.cands, g.class, w.cands, w.class = nil, nil, nil, nil
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("query %d demand %d: table %+v, reference %+v", qi, di, g, w)
			}
		}
	}
}

func hasPreferred(f *fastPath) bool {
	for _, demands := range f.perQuery {
		for _, d := range demands {
			for _, c := range d.cands {
				if c.preferred {
					return true
				}
			}
		}
	}
	return false
}

// TestFastPathTablesMatchReference is the "dump and cmp" of the table build:
// on every instance, at one, two and eight workers, the one-pass parallel
// builder's tables equal the two-loop serial builder's (reference_test.go)
// field for field — so every decision priced off them, and every WAL and
// trace byte, is what it was.
func TestFastPathTablesMatchReference(t *testing.T) {
	defaultP, _ := NewTestProblem(t, 5, 120)
	forecastP, forecastW := NewTestProblem(t, 9, 80)
	for _, tc := range []struct {
		name string
		p    *placement.Problem
		opt  Options
	}{
		{"default", defaultP, Options{}},
		{"bench 500 nodes", benchProblem(t), Options{}},
		{"forecast", forecastP, Options{Forecast: forecastW.Queries[:40], MaxUtilization: 0.8}},
		{"ties and the classification epsilon", edgeProblem(t), Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				e := NewEngine(tc.p, len(tc.p.Queries), tc.opt)
				requireSameTables(t, e.fast, newFastPathReference(e))
				if tc.opt.Forecast != nil && !hasPreferred(e.fast) {
					t.Fatal("the forecast marked no candidate preferred; the field is not exercised")
				}
			}
		})
	}
	t.Run("what the hand-built instance pins", func(t *testing.T) {
		f := NewEngine(edgeProblem(t), 3, Options{}).fast
		var order []graph.NodeID
		for _, c := range f.perQuery[0][0].cands {
			order = append(order, c.node)
		}
		if want := []graph.NodeID{1, 2, 3, 5, 6, 4, 7}; !reflect.DeepEqual(order, want) {
			t.Fatalf("admission order %v, want %v (2, 3, 5 and 6 tie on delay)", order, want)
		}
		if d := f.perQuery[1][0]; len(d.cands) != 1 || len(d.class) != 5 {
			t.Fatalf("deadline one ulp under the tie: %d candidates, %d classification entries; want 1 and 5 (the +1e-12)",
				len(d.cands), len(d.class))
		}
		if d := f.perQuery[2][0]; len(d.cands) != 1 || len(d.class) != 1 {
			t.Fatalf("deadline 1e-9 under the tie: %d candidates, %d classification entries; want 1 and 1",
				len(d.cands), len(d.class))
		}
	})
}

// fastPathBuildAllocs bounds what building the bench instance's tables
// allocates at one worker (testing.AllocsPerRun measures at GOMAXPROCS=1):
// 12 955–12 957 measured — per (query, demand) table the doublings of its two
// appended slices, per query its slice of tables, and a few objects for the
// fastPath and the worker. Nothing per candidate: the two-loop builder's
// ranking and reflection-based sort per table made it 16 834.
const fastPathBuildAllocs = 13000

// BenchmarkFastPathBuild times newFastPath on the bench's 500-node instance
// (1 151 tables, 221 181 candidates) and fails if one build allocates more
// than fastPathBuildAllocs objects.
func BenchmarkFastPathBuild(b *testing.B) {
	b.Run("v500", func(b *testing.B) {
		e := NewEngine(benchProblem(b), 10000, Options{})
		if got := testing.AllocsPerRun(1, func() { newFastPath(e) }); got > fastPathBuildAllocs {
			b.Fatalf("one build allocates %v objects, want at most %d", got, fastPathBuildAllocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newFastPath(e)
		}
	})
}
