package consistency

import (
	"math"
	"testing"
	"testing/quick"

	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

func fixture(t testing.TB) (*topology.Topology, []workload.Dataset, *placement.Solution) {
	t.Helper()
	top := topology.MustGenerate(topology.DefaultConfig())
	wc := workload.DefaultConfig()
	wc.NumDatasets = 6
	wc.NumQueries = 20
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ApproG(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return top, w.Datasets, res.Solution
}

func TestThresholdValidation(t *testing.T) {
	top, ds, sol := fixture(t)
	for _, bad := range []float64{0, -0.5, 1.5} {
		if _, err := NewManager(top, ds, sol, bad); err == nil {
			t.Fatalf("threshold %v accepted", bad)
		}
	}
	if _, err := NewManager(top, ds, sol, 0.2); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBelowThresholdNoSync(t *testing.T) {
	top, ds, sol := fixture(t)
	m, err := NewManager(top, ds, sol, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := m.Append(0, ds[0].SizeGB*0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("sync fired below threshold: %v", evs)
	}
	if r := m.DirtyRatio(0); math.Abs(r-0.4) > 1e-9 {
		t.Fatalf("dirty ratio %v, want 0.4", r)
	}
}

func TestAppendCrossingThresholdSyncs(t *testing.T) {
	top, ds, sol := fixture(t)
	m, err := NewManager(top, ds, sol, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	vol := ds[0].SizeGB * 0.35
	evs, err := m.Append(0, vol)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("expected one sync event, got %d", len(evs))
	}
	ev := evs[0]
	if math.Abs(ev.VolumeGB-vol) > 1e-9 {
		t.Fatalf("sync volume %v, want %v", ev.VolumeGB, vol)
	}
	if m.DirtyRatio(0) != 0 {
		t.Fatalf("dirty ratio %v after sync, want 0", m.DirtyRatio(0))
	}
	// Cost must equal Σ vol·dt(origin, replica) over non-origin replicas.
	wantCost := 0.0
	for _, v := range sol.Replicas[0] {
		if v != ds[0].Origin {
			wantCost += vol * top.DelayFrom(ds[0].Origin)[v]
		}
	}
	if math.Abs(ev.CostGBSec-wantCost) > 1e-9 {
		t.Fatalf("sync cost %v, want %v", ev.CostGBSec, wantCost)
	}
}

func TestAccumulationAcrossAppends(t *testing.T) {
	top, ds, sol := fixture(t)
	m, err := NewManager(top, ds, sol, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	step := ds[1].SizeGB * 0.2
	var fired []SyncEvent
	for i := 0; i < 3; i++ {
		evs, err := m.Append(1, step)
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, evs...)
	}
	// 0.2+0.2 < 0.5; third append reaches 0.6 ≥ 0.5 → exactly one sync of
	// the full accumulated volume.
	if len(fired) != 1 {
		t.Fatalf("got %d syncs, want 1", len(fired))
	}
	if math.Abs(fired[0].VolumeGB-3*step) > 1e-9 {
		t.Fatalf("sync volume %v, want %v", fired[0].VolumeGB, 3*step)
	}
}

func TestAppendErrors(t *testing.T) {
	top, ds, sol := fixture(t)
	m, err := NewManager(top, ds, sol, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(workload.DatasetID(len(ds)+3), 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := m.Append(0, -1); err == nil {
		t.Fatal("negative volume accepted")
	}
}

func TestTotalCostAndEvents(t *testing.T) {
	top, ds, sol := fixture(t)
	m, err := NewManager(top, ds, sol, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for n := range ds {
		evs, err := m.Append(workload.DatasetID(n), ds[n].SizeGB*0.2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			total += e.CostGBSec
		}
	}
	if math.Abs(m.TotalCost()-total) > 1e-9 {
		t.Fatalf("TotalCost %v, want %v", m.TotalCost(), total)
	}
	if len(m.Events()) == 0 {
		t.Fatal("no events recorded")
	}
}

// Property: more replicas mean weakly larger propagation cost — the paper's
// motivation for the K bound.
func TestCostMonotoneInReplicasProperty(t *testing.T) {
	top := topology.MustGenerate(topology.DefaultConfig())
	ds := []workload.Dataset{{ID: 0, SizeGB: 4, Origin: top.ComputeNodes[0]}}
	f := func(kRaw uint8) bool {
		k := 1 + int(kRaw)%8
		small := placement.NewSolution()
		big := placement.NewSolution()
		for i := 0; i < k; i++ {
			big.AddReplica(0, top.ComputeNodes[i%len(top.ComputeNodes)])
			if i < k/2 {
				small.AddReplica(0, top.ComputeNodes[i%len(top.ComputeNodes)])
			}
		}
		ms, err := NewManager(top, ds, small, 0.1)
		if err != nil {
			return false
		}
		mb, err := NewManager(top, ds, big, 0.1)
		if err != nil {
			return false
		}
		if _, err := ms.Append(0, 1); err != nil {
			return false
		}
		if _, err := mb.Append(0, 1); err != nil {
			return false
		}
		return mb.TotalCost() >= ms.TotalCost()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
