package online

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// TestForecastQueryIDsAreRenumbered: core's proactive phase indexes queries
// by ID, so NewEngine renumbers the forecast to positions. A forecast whose
// IDs are offset by 1000 must pre-place the same sites, and the engine must
// then decide every arrival the same, as the same forecast numbered from 0.
func TestForecastQueryIDsAreRenumbered(t *testing.T) {
	p, w := NewTestProblem(t, 9, 80)
	forecast := slices.Clone(w.Queries[:40])
	offset := slices.Clone(forecast)
	for i := range offset {
		offset[i].ID += 1000
	}
	plain := NewEngine(p, len(p.Queries), Options{Forecast: forecast})
	shifted := NewEngine(p, len(p.Queries), Options{Forecast: offset})
	if len(plain.preferredSites) == 0 {
		t.Fatal("the forecast pre-placed no site")
	}
	if !reflect.DeepEqual(shifted.preferredSites, plain.preferredSites) {
		t.Fatalf("offset IDs pre-placed %v, positions %v", shifted.preferredSites, plain.preferredSites)
	}
	if offset[0].ID != 1000 {
		t.Fatal("NewEngine renumbered the caller's forecast in place")
	}
	for i := range p.Queries {
		a := Arrival{Query: workload.QueryID(i), AtSec: float64(i), HoldSec: 30}
		want, err := plain.Offer(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shifted.Offer(a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: offset IDs decide %+v, positions %+v", i, got, want)
		}
	}
}

// preferredRepairTopology is a star around base station 0, every query's
// home, with four equal cloudlets at different distances: 1 nearest, then 3,
// then 2, then 4.
const preferredRepairTopology = `{"nodes": [
 {"id": 0, "kind": "basestation"},
 {"id": 1, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 2, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 3, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5},
 {"id": 4, "kind": "cloudlet", "capacity_ghz": 4, "proc_delay_per_gb": 0.5}],
 "links": [
 {"from": 0, "to": 1, "delay_per_gb": 0.125},
 {"from": 0, "to": 2, "delay_per_gb": 0.5},
 {"from": 0, "to": 3, "delay_per_gb": 0.25},
 {"from": 0, "to": 4, "delay_per_gb": 0.75}]}`

// TestRepairOpensPreferredSiteFree: repair prices a preferred site as
// admission does, at no replica-open price. One query (2 GB, need 2 GHz) is
// forecast three times; core's proactive phase covers two of the three on
// cloudlet 1 (capacity 4) and the third on cloudlet 2, the lowest ID among
// the rest. The query is admitted at 1, the nearest, and 1 crashes. Neither
// survivor holds a replica. Cloudlet 3 is nearer than 2 (delay term 0.0375
// against 0.045), but opening a non-preferred replica costs
// 0.25·2·1/3 ≈ 0.167, so at rep = 0 the preferred cloudlet 2 is cheaper.
// Charging it the open price, as repair did before it priced off the
// admission tables, moves the query to 3.
func TestRepairOpensPreferredSiteFree(t *testing.T) {
	top, err := topology.Load(strings.NewReader(preferredRepairTopology))
	if err != nil {
		t.Fatal(err)
	}
	q := workload.Query{ID: 0, Home: 0, ComputePerGB: 1, DeadlineSec: 10,
		Demands: []workload.Demand{{Dataset: 0, Selectivity: 0.5}}}
	w := &workload.Workload{
		Datasets: []workload.Dataset{{ID: 0, SizeGB: 2, Origin: 1}},
		Queries:  []workload.Query{q},
	}
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p, 1, Options{Forecast: []workload.Query{q, q, q}})
	if want := []graph.NodeID{1, 2}; !reflect.DeepEqual(e.preferredSites[0], want) {
		t.Fatalf("preferred sites %v, want %v", e.preferredSites[0], want)
	}
	dec, err := e.Offer(Arrival{Query: 0, AtSec: 0, HoldSec: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted || dec.Assignments[0].Node != 1 {
		t.Fatalf("admission %+v, want cloudlet 1", dec)
	}
	rep, err := e.Crash(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 || rep.NewReplicas != 1 || len(rep.Evicted) != 0 {
		t.Fatalf("crash report %+v, want one repair onto a new replica", rep)
	}
	if as := e.Solution().Assignments; len(as) != 1 || as[0].Node != 2 {
		t.Fatalf("repaired onto %+v, want the preferred cloudlet 2", as)
	}
	if got := e.TestUsedGHz(2); got != 2 {
		t.Fatalf("cloudlet 2 carries %v GHz, want the moved hold's 2", got)
	}
}
