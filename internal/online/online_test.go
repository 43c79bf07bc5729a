package online_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/invariant"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

func TestOfferBasicAdmission(t *testing.T) {
	p, w := online.NewTestProblem(t, 1, 30)
	e := online.NewEngine(p, len(w.Queries), online.Options{})
	admitted := 0
	for i := range w.Queries {
		dec, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Admitted {
			admitted++
			if len(dec.Assignments) != len(w.Queries[i].Demands) {
				t.Fatalf("query %d admitted with %d/%d assignments",
					i, len(dec.Assignments), len(w.Queries[i].Demands))
			}
		}
	}
	r := e.Result()
	if r.Admitted != admitted || r.Admitted+r.Rejected != len(w.Queries) {
		t.Fatalf("bookkeeping: %+v vs admitted %d of %d", r, admitted, len(w.Queries))
	}
	if admitted == 0 {
		t.Fatal("online engine admitted nothing")
	}
	if r.PeakUtilization <= 0 || r.PeakUtilization > 1+1e-9 {
		t.Fatalf("peak utilization %v outside (0,1]", r.PeakUtilization)
	}
}

func TestHoldForeverMatchesOfflineCapacityModel(t *testing.T) {
	// With HoldSec = 0 (never released), the online solution must satisfy
	// the offline validator's capacity constraint.
	p, w := online.NewTestProblem(t, 2, 40)
	e := online.NewEngine(p, len(w.Queries), online.Options{})
	for i := range w.Queries {
		if _, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Solution().Validate(p); err != nil {
		t.Fatalf("online hold-forever solution fails offline validation: %v", err)
	}
	if err := invariant.CheckSolution(p, e.Solution(), e.Result().VolumeAdmitted); err != nil {
		t.Fatalf("online hold-forever solution violates paper invariants: %v", err)
	}
}

func TestCapacityReleasedAfterHold(t *testing.T) {
	// Arrivals far apart with short holds: capacity is reused, so many
	// more queries are admitted than the hold-forever run.
	pHold, w := online.NewTestProblem(t, 3, 60)
	eHold := online.NewEngine(pHold, len(w.Queries), online.Options{})
	pRel, _ := online.NewTestProblem(t, 3, 60)
	eRel := online.NewEngine(pRel, len(w.Queries), online.Options{})
	for i := range w.Queries {
		at := float64(i) * 10
		if _, err := eHold.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: at}); err != nil {
			t.Fatal(err)
		}
		if _, err := eRel.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: at, HoldSec: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if eRel.Result().Admitted < eHold.Result().Admitted {
		t.Fatalf("releasing capacity admitted fewer queries (%d) than holding forever (%d)",
			eRel.Result().Admitted, eHold.Result().Admitted)
	}
	// With 10s gaps and 1s holds, no two allocations overlap, so every
	// rejection is due to deadlines or the K-frozen replica sets — never
	// capacity. Sanity-bound: at least half the deadline-feasible queries
	// must get in (K-freezing accounts for the rest).
	deadlineOnly := 0
	for i := range w.Queries {
		feasible := true
		for _, dm := range w.Queries[i].Demands {
			if len(pRel.FeasibleNodes(workload.QueryID(i), dm.Dataset)) == 0 {
				feasible = false
			}
		}
		if feasible {
			deadlineOnly++
		}
	}
	if eRel.Result().Admitted < deadlineOnly/2 {
		t.Fatalf("short-hold run admitted %d, expected at least half of the %d deadline-feasible queries",
			eRel.Result().Admitted, deadlineOnly)
	}
	// Finite holds release capacity over time, so the offline capacity sum
	// does not apply — everything else (replica, deadline, K, objective) must.
	if err := invariant.CheckAdmissions(pRel, eRel.Solution(), eRel.Result().VolumeAdmitted); err != nil {
		t.Fatalf("short-hold solution violates paper invariants: %v", err)
	}
}

func TestReplicaBoundHeldOnline(t *testing.T) {
	p, w := online.NewTestProblem(t, 4, 50)
	e := online.NewEngine(p, len(w.Queries), online.Options{})
	for i := range w.Queries {
		if _, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for n, nodes := range e.Solution().Replicas {
		if len(nodes) > p.MaxReplicas {
			t.Fatalf("dataset %d has %d replicas online, K=%d", n, len(nodes), p.MaxReplicas)
		}
	}
}

func TestArrivalOrderEnforced(t *testing.T) {
	p, _ := online.NewTestProblem(t, 5, 10)
	e := online.NewEngine(p, 10, online.Options{})
	if _, err := e.Offer(online.Arrival{Query: 0, AtSec: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Offer(online.Arrival{Query: 1, AtSec: 3}); err == nil {
		t.Fatal("time-travel arrival accepted")
	}
	if _, err := e.Offer(online.Arrival{Query: workload.QueryID(99), AtSec: 6}); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestForecastImprovesOrMatchesLazy(t *testing.T) {
	// The forecast-driven preferred sites should not hurt admitted volume
	// on average when the forecast equals the actual workload.
	var lazySum, foreSum float64
	for seed := int64(1); seed <= 6; seed++ {
		pLazy, w := online.NewTestProblem(t, seed, 50)
		eLazy := online.NewEngine(pLazy, len(w.Queries), online.Options{})
		pFore, _ := online.NewTestProblem(t, seed, 50)
		eFore := online.NewEngine(pFore, len(w.Queries), online.Options{Forecast: w.Queries})
		for i := range w.Queries {
			if _, err := eLazy.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i)}); err != nil {
				t.Fatal(err)
			}
			if _, err := eFore.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		lazySum += eLazy.Result().VolumeAdmitted
		foreSum += eFore.Result().VolumeAdmitted
	}
	if foreSum < lazySum*0.95 {
		t.Fatalf("forecast placement hurt online volume: %.1f vs lazy %.1f", foreSum, lazySum)
	}
}

func TestMaxUtilizationHeadroom(t *testing.T) {
	p, w := online.NewTestProblem(t, 7, 60)
	e := online.NewEngine(p, len(w.Queries), online.Options{MaxUtilization: 0.5})
	for i := range w.Queries {
		if _, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if peak := e.Result().PeakUtilization; peak > 0.5+1e-9 {
		t.Fatalf("peak utilization %v exceeds the 0.5 headroom cap", peak)
	}
}

// Offline Appro-G sees all queries at once and should beat (or match) the
// online engine that must decide irrevocably per arrival.
func TestOfflineDominatesOnline(t *testing.T) {
	var onSum, offSum float64
	for seed := int64(1); seed <= 6; seed++ {
		pOn, w := online.NewTestProblem(t, seed, 50)
		e := online.NewEngine(pOn, len(w.Queries), online.Options{})
		for i := range w.Queries {
			if _, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		onSum += e.Result().VolumeAdmitted
		pOff, _ := online.NewTestProblem(t, seed, 50)
		res, err := core.ApproG(pOff, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		offSum += res.Solution.Volume(pOff)
	}
	if onSum > offSum*1.05 {
		t.Fatalf("online (%.1f) implausibly beats offline (%.1f)", onSum, offSum)
	}
}

// Property: for any arrival permutation, the engine never violates the
// instantaneous capacity of any node.
func TestInstantaneousCapacityProperty(t *testing.T) {
	p, w := online.NewTestProblem(t, 11, 40)
	f := func(permSeed int64) bool {
		pp, _ := online.NewTestProblem(t, 11, 40)
		e := online.NewEngine(pp, len(w.Queries), online.Options{})
		order := rand.New(rand.NewSource(permSeed)).Perm(len(w.Queries))
		for i, qi := range order {
			dec, err := e.Offer(online.Arrival{Query: workload.QueryID(qi), AtSec: float64(i), HoldSec: 5})
			if err != nil {
				return false
			}
			_ = dec
		}
		if err := invariant.CheckAdmissions(pp, e.Solution(), e.Result().VolumeAdmitted); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		return e.Result().PeakUtilization <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
	_ = p
}

func BenchmarkOnlineOffer(b *testing.B) {
	tc := topology.DefaultConfig()
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.NumDatasets = 10
	wc.NumQueries = 100
	w := workload.MustGenerate(wc, top)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := placement.NewProblem(cluster.New(top), w, 3)
		if err != nil {
			b.Fatal(err)
		}
		e := online.NewEngine(p, len(w.Queries), online.Options{})
		for qi := range w.Queries {
			if _, err := e.Offer(online.Arrival{Query: workload.QueryID(qi), AtSec: float64(qi), HoldSec: 10}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestAdmitPathAllocs pins what committing a decision allocates: on an
// admitted Offer with a hold — no trace — nothing but the assignment slice
// the decision keeps, and on a rejected one nothing, whether or not the
// engine journals. Each run pushes the query's releases and, its hold being
// shorter than the spacing, pops the previous run's; the release heap is
// typed, so neither boxes, and Solution.Admit does not sort. A journaled
// record is encoded into a reused buffer and framed into another. The appends
// to the decision and assignment histories are amortized away over the runs.
func TestAdmitPathAllocs(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		p, w := online.NewTestProblem(t, 5, 120)
		var opt online.Options
		if journaled {
			j, err := journal.Open(t.TempDir(), journal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			opt.Journal = j
		}
		e := online.NewEngine(p, len(w.Queries), opt)
		admit, reject, at := workload.QueryID(-1), workload.QueryID(-1), 0.0
		for i := range w.Queries {
			at++
			dec, err := e.Offer(online.Arrival{Query: workload.QueryID(i), AtSec: at, HoldSec: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if dec.Admitted && len(dec.Assignments) > 1 && admit == -1 {
				admit = dec.Query
			}
			if !dec.Admitted && reject == -1 {
				reject = dec.Query
			}
		}
		if admit == -1 || reject == -1 {
			t.Fatal("no query with two demands admitted, or none rejected, on an idle engine; scenario too weak")
		}
		for _, c := range []struct {
			q      workload.QueryID
			admits bool
			allocs float64
		}{{admit, true, 1}, {reject, false, 0}} {
			wrong := 0
			allocs := testing.AllocsPerRun(2000, func() {
				at++
				if dec, _ := e.Offer(online.Arrival{Query: c.q, AtSec: at, HoldSec: 0.5}); dec.Admitted != c.admits {
					wrong++
				}
			})
			if wrong > 0 {
				t.Fatalf("journaled=%v: %d of the measured offers of query %d went the other way", journaled, wrong, c.q)
			}
			if allocs != c.allocs {
				t.Errorf("journaled=%v: an Offer with admitted=%v allocates %.0f objects, want exactly %.0f", journaled, c.admits, allocs, c.allocs)
			}
		}
	}
}
