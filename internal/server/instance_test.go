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

// delayTargets counts the nodes the delay model reads rows for: the query
// homes and the dataset origins, each once.
func delayTargets(p *placement.Problem) int {
	targets := map[graph.NodeID]bool{}
	for _, q := range p.Queries {
		targets[q.Home] = true
	}
	for _, ds := range p.Datasets {
		targets[ds.Origin] = true
	}
	return len(targets)
}

// TestBuildInstanceRunsOneDijkstraPerTarget pins what a cold start pays for
// distances: one BuildInstance at 500 nodes runs exactly one Dijkstra per
// query home or dataset origin (281 on seed 1, of 533 vertices), and the
// engine built on it — its tables and an offer of every query — runs none.
func TestBuildInstanceRunsOneDijkstraPerTarget(t *testing.T) {
	instrument.Reset()
	instrument.Enable()
	defer instrument.Disable()
	defer instrument.Reset()
	p, err := BuildInstance(lifeInstance(500))
	if err != nil {
		t.Fatal(err)
	}
	calls := instrument.Snapshot()["graph.dijkstra_calls"]
	targets := int64(delayTargets(p))
	vertices := int64(p.Cloud.Topology().Graph.NumNodes())
	if calls != targets {
		t.Fatalf("BuildInstance ran %d Dijkstras; the instance has %d homes and origins (%d vertices)", calls, targets, vertices)
	}
	if targets >= vertices {
		t.Fatalf("%d homes and origins of %d vertices: the instance no longer shows the saving", targets, vertices)
	}
	e := online.NewEngine(p, len(p.Queries), online.Options{})
	for i := range p.Queries {
		if _, err := e.Offer(online.Arrival{Query: p.Queries[i].ID, AtSec: float64(i), HoldSec: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if after := instrument.Snapshot()["graph.dijkstra_calls"]; after != calls {
		t.Fatalf("the engine and %d offers ran %d Dijkstras after BuildInstance; want none", len(p.Queries), after-calls)
	}
}

// BenchmarkBuildInstance times BuildInstance on the benchmark's recovery
// instance at 500 nodes and at 2000, and reports the Dijkstra runs one build
// makes and the heap bytes the built problem keeps alive (the distance
// memory: the trees of the homes and origins and their delay rows).
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
