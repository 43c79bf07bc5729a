package server

import (
	"fmt"
	"runtime"
	"testing"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/online"
	"edgerep/internal/placement"
)

// lifeInstance is the benchmark's recovery instance at another network size:
// seed 1, 40 datasets, 400 queries.
func lifeInstance(nodes int) InstanceConfig {
	return InstanceConfig{Seed: 1, Nodes: nodes, Datasets: 40, Queries: 400, F: 5, K: 3}
}

// homes counts the distinct query homes: the nodes the delay model reads
// rows for.
func homes(p *placement.Problem) int {
	seen := map[graph.NodeID]bool{}
	for _, q := range p.Queries {
		seen[q.Home] = true
	}
	return len(seen)
}

// TestBuildInstanceRunsOneDijkstraPerTarget pins what a cold start pays for
// distances: one BuildInstance at 500 nodes runs exactly one Dijkstra per
// query home (261 on seed 1, of 533 vertices), and the engine built on it —
// its tables and an offer of every query — runs none. A dataset origin that
// no query is homed at gets its tree on first use: the first DelayFrom of it
// runs one Dijkstra, the second none.
func TestBuildInstanceRunsOneDijkstraPerTarget(t *testing.T) {
	instrument.Reset()
	instrument.Enable()
	defer instrument.Disable()
	defer instrument.Reset()
	dijkstras := func() int64 { return instrument.Snapshot()["graph.dijkstra_calls"] }
	p, err := BuildInstance(lifeInstance(500))
	if err != nil {
		t.Fatal(err)
	}
	calls := dijkstras()
	vertices := int64(p.Cloud.Topology().Graph.NumNodes())
	if want := int64(homes(p)); calls != want || want != 261 {
		t.Fatalf("BuildInstance ran %d Dijkstras; the instance has %d query homes (want 261 on seed 1; %d vertices)", calls, want, vertices)
	}
	e := online.NewEngine(p, len(p.Queries), online.Options{})
	for i := range p.Queries {
		if _, err := e.Offer(online.Arrival{Query: p.Queries[i].ID, AtSec: float64(i), HoldSec: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if after := dijkstras(); after != calls {
		t.Fatalf("the engine and %d offers ran %d Dijkstras after BuildInstance; want none", len(p.Queries), after-calls)
	}
	home := map[graph.NodeID]bool{}
	for _, q := range p.Queries {
		home[q.Home] = true
	}
	origin := graph.NodeID(-1)
	for _, ds := range p.Datasets {
		if !home[ds.Origin] {
			origin = ds.Origin
			break
		}
	}
	if origin == -1 {
		t.Fatal("every dataset origin is a query home; the instance no longer shows the saving")
	}
	p.Cloud.DelayFrom(origin)
	if got := dijkstras() - calls; got != 1 {
		t.Fatalf("the first DelayFrom of origin %d ran %d Dijkstras, want 1", origin, got)
	}
	p.Cloud.DelayFrom(origin)
	if got := dijkstras() - calls; got != 1 {
		t.Fatalf("a second DelayFrom of origin %d ran %d more Dijkstras, want none", origin, got-1)
	}
}

// BenchmarkBuildInstance times BuildInstance on the benchmark's recovery
// instance at 500 nodes and at 2000, and reports the Dijkstra runs one build
// makes and the heap bytes the built problem keeps alive (the distance
// memory: the trees of the query homes and their delay rows).
func BenchmarkBuildInstance(b *testing.B) {
	for _, nodes := range []int{500, 2000} {
		b.Run(fmt.Sprintf("v%d", nodes), func(b *testing.B) {
			instrument.Reset()
			instrument.Enable()
			defer instrument.Disable()
			defer instrument.Reset()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			p, err := BuildInstance(lifeInstance(nodes))
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			runtime.KeepAlive(p)
			dijkstras := instrument.Snapshot()["graph.dijkstra_calls"]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildInstance(lifeInstance(nodes)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(dijkstras), "dijkstras/build")
			b.ReportMetric(retained, "retained-B")
		})
	}
}
