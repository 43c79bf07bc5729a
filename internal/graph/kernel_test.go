package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"edgerep/internal/graph"
	"edgerep/internal/topology"
)

// requireSameTrees runs the typed-heap kernel and the container/heap kernel
// it replaced (reference_test.go) from every source of g and requires the
// same Dist bits and the same parent array.
func requireSameTrees(t *testing.T, g *graph.Graph) {
	t.Helper()
	for s := 0; s < g.NumNodes(); s++ {
		src := graph.NodeID(s)
		got, want := g.Dijkstra(src), g.DijkstraReference(src)
		gotParent, wantParent := got.Parents(), want.Parents()
		for v := range want.Dist {
			if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
				t.Fatalf("source %d: Dist[%d] = %v, reference %v", s, v, got.Dist[v], want.Dist[v])
			}
			if gotParent[v] != wantParent[v] {
				t.Fatalf("source %d: parent[%d] = %d, reference %d (equal distances popped in another order)",
					s, v, gotParent[v], wantParent[v])
			}
		}
	}
}

// TestDijkstraMatchesReference pins the kernel's contract: not only the
// distances but the shortest-path trees — which of several equally short
// paths PathTo reports — are those of the kernel it replaced. The generated
// topologies have real-valued weights and next to no ties; the unit-weight
// grid has exact ties on every level, so its parents depend on the order
// equal entries leave the heap, and the zero-weight and disconnected graphs
// cover the remaining edge shapes.
func TestDijkstraMatchesReference(t *testing.T) {
	for _, n := range []int{30, 100, 500} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("topology/n=%d/seed=%d", n, seed), func(t *testing.T) {
				requireSameTrees(t, topology.MustGenerate(topology.ScaledConfig(n, seed)).Graph)
			})
		}
	}
	t.Run("unit grid", func(t *testing.T) {
		const side = 12
		g := graph.New(side * side)
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if c+1 < side {
					g.AddEdge(graph.NodeID(r*side+c), graph.NodeID(r*side+c+1), 1)
				}
				if r+1 < side {
					g.AddEdge(graph.NodeID(r*side+c), graph.NodeID((r+1)*side+c), 1)
				}
			}
		}
		requireSameTrees(t, g)
	})
	t.Run("zero-weight edges", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		g := graph.New(60)
		for u := 0; u < 60; u++ {
			for v := u + 1; v < 60; v++ {
				if rng.Float64() < 0.15 {
					g.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(rng.Intn(3))) // 0, 1 or 2
				}
			}
		}
		requireSameTrees(t, g)
	})
	t.Run("disconnected", func(t *testing.T) {
		g := graph.New(9)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(0, 2, 2)
		g.AddEdge(3, 4, 0.5)
		g.AddEdge(4, 5, 0.5)
		g.AddEdge(5, 6, 0.5)
		g.AddEdge(3, 6, 1.5) // 7 and 8 stay isolated
		requireSameTrees(t, g)
		sp := g.Dijkstra(0)
		for _, v := range []graph.NodeID{3, 6, 8} {
			if !math.IsInf(sp.Dist[v], 1) || sp.Dist[v] != graph.Infinity {
				t.Fatalf("Dist[%d] = %v across components, want the Infinity sentinel", v, sp.Dist[v])
			}
			if p := sp.PathTo(v); p != nil {
				t.Fatalf("PathTo(%d) = %v across components, want nil", v, p)
			}
		}
	})
}

// dijkstraAllocs is what one run may allocate: Dist, parent, the heap's
// storage and the ShortestPaths struct. The replaced kernel boxed an item on
// every push and every pop on top of them: 2 733 objects a run on the
// 500-node topology.
const dijkstraAllocs = 4

func TestDijkstraAllocs(t *testing.T) {
	g := topology.MustGenerate(topology.ScaledConfig(500, 1)).Graph
	if got := testing.AllocsPerRun(5, func() { g.Dijkstra(0) }); got > dijkstraAllocs {
		t.Fatalf("one Dijkstra run on the 500-node topology allocates %v objects, want at most %d", got, dijkstraAllocs)
	}
}

// BenchmarkDijkstra times one single-source run on the bench's 500-node
// topology (533 vertices, 28 745 edges) and fails if it allocates more than
// dijkstraAllocs objects.
func BenchmarkDijkstra(b *testing.B) {
	b.Run("v500", func(b *testing.B) {
		g := topology.MustGenerate(topology.ScaledConfig(500, 1)).Graph
		if got := testing.AllocsPerRun(5, func() { g.Dijkstra(0) }); got > dijkstraAllocs {
			b.Fatalf("one run allocates %v objects, want at most %d", got, dijkstraAllocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Dijkstra(graph.NodeID(i % g.NumNodes()))
		}
	})
}

// TestMatrixMatchesSerial requires the matrix DistanceCache.Matrix builds on
// GOMAXPROCS workers to equal, bit for bit, the serial all-pairs loop it
// replaced (reference_test.go) — from a cold cache, from one with a few
// sources already resolved through Shortest, and from one whose sources are
// being resolved by other goroutines while the matrix is built. Run under
// -race (ci.sh does): the workers write disjoint rows of one slice.
func TestMatrixMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := topology.MustGenerate(topology.ScaledConfig(100, 2)).Graph
	n := g.NumNodes()
	want := g.AllPairsShortestPaths()
	check := func(t *testing.T, got *graph.DistanceMatrix) {
		t.Helper()
		if got.NumNodes() != n {
			t.Fatalf("matrix over %d nodes, want %d", got.NumNodes(), n)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				a, b := got.Between(graph.NodeID(u), graph.NodeID(v)), want.Between(graph.NodeID(u), graph.NodeID(v))
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("Matrix %d→%d = %v, serial all-pairs = %v", u, v, a, b)
				}
			}
		}
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("cold/procs=%d", procs), func(t *testing.T) {
			check(t, graph.NewDistanceCache(g).Matrix())
		})
		t.Run(fmt.Sprintf("warmed/procs=%d", procs), func(t *testing.T) {
			c := graph.NewDistanceCache(g)
			for _, src := range []graph.NodeID{0, 17, graph.NodeID(n - 1)} {
				c.Shortest(src)
			}
			check(t, c.Matrix())
		})
		t.Run(fmt.Sprintf("raced/procs=%d", procs), func(t *testing.T) {
			c := graph.NewDistanceCache(g)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u := n - 1; u >= 0; u-- { // against the workers' direction
					c.Shortest(graph.NodeID(u))
				}
			}()
			m := c.Matrix()
			wg.Wait()
			check(t, m)
		})
	}
}
