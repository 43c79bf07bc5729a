package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"edgerep/internal/instrument"
)

// randomConnectedish builds a random graph in the shape of the repo's
// two-tier topologies: a chain spine (so most of it is connected) plus iid
// random links. It intentionally does NOT repair connectivity when
// skipSpine is set, so disconnected pairs occur.
func randomGraph(rng *rand.Rand, n int, p float64, spine bool) *Graph {
	g := New(n)
	if spine {
		for i := 1; i < n; i++ {
			g.AddEdge(NodeID(i-1), NodeID(i), 0.1+rng.Float64())
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if spine && v == u+1 {
				continue // already joined by the spine
			}
			if rng.Float64() < p {
				g.AddEdge(NodeID(u), NodeID(v), 0.1+rng.Float64())
			}
		}
	}
	return g
}

// TestDistanceCacheCoherence asserts the cache answers exactly what a fresh
// Dijkstra answers, on 50 random topologies, for every (source, dest) pair —
// the invariant that lets topology, routing, and experiments share one cache.
func TestDistanceCacheCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for topo := 0; topo < 50; topo++ {
		n := 5 + rng.Intn(40)
		spine := topo%2 == 0 // half the topologies have disconnected parts
		g := randomGraph(rng, n, 0.15, spine)
		c := NewDistanceCache(g)
		m := c.Matrix()
		for u := 0; u < n; u++ {
			fresh := g.dijkstra(NodeID(u))
			cached := c.Shortest(NodeID(u))
			for v := 0; v < n; v++ {
				if fresh.Dist[v] != cached.Dist[v] {
					t.Fatalf("topo %d: cache dist %d→%d = %v, fresh = %v",
						topo, u, v, cached.Dist[v], fresh.Dist[v])
				}
				if m.Between(NodeID(u), NodeID(v)) != fresh.Dist[v] {
					t.Fatalf("topo %d: matrix %d→%d = %v, fresh = %v",
						topo, u, v, m.Between(NodeID(u), NodeID(v)), fresh.Dist[v])
				}
				// Paths from the cached tree must be valid shortest paths.
				if !math.IsInf(fresh.Dist[v], 1) {
					if path := cached.PathTo(NodeID(v)); len(path) == 0 {
						t.Fatalf("topo %d: no path %d→%d despite finite distance", topo, u, v)
					}
				}
			}
		}
		// Matrix is built once and then served from cache.
		if c.Matrix() != m {
			t.Fatalf("topo %d: Matrix rebuilt instead of cached", topo)
		}
	}
}

// TestDistanceCacheConcurrent races many readers over one cache under the
// race detector; all must observe identical canonical trees.
func TestDistanceCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 60, 0.1, true)
	c := NewDistanceCache(g)
	want := g.dijkstra(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := NodeID((w*50 + i) % g.NumNodes())
				sp := c.Shortest(src)
				if sp.Source != src {
					t.Errorf("tree source %d, want %d", sp.Source, src)
				}
				_ = c.Matrix()
				if d := c.Shortest(0).Dist[i%g.NumNodes()]; d != want.Dist[i%g.NumNodes()] {
					t.Errorf("Between(0,%d) = %v, want %v", i%g.NumNodes(), d, want.Dist[i%g.NumNodes()])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDistanceCacheColdMatrixConcurrent starts many goroutines on a cold
// cache so they all race the first Matrix() materialization: every caller
// must receive the one canonical *DistanceMatrix (not a private rebuild),
// its entries must match fresh Dijkstra runs, and — because cold misses are
// single-flight — the stats must be exact: one matrix build, one Dijkstra
// (and one miss) per source run by the build, and exactly one hit per
// non-leader caller. Run under -race (ci.sh does).
func TestDistanceCacheColdMatrixConcurrent(t *testing.T) {
	instrument.Enable()
	defer instrument.Disable()
	defer instrument.Reset()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(rng, 40, 0.1, trial%2 == 0)
		c := NewDistanceCache(g)
		const workers = 16
		mats := make([]*DistanceMatrix, workers)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(workers)
		instrument.Reset()
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer done.Done()
				start.Wait() // line everyone up on the cold cache
				mats[w] = c.Matrix()
			}(w)
		}
		start.Done()
		done.Wait()
		// Exact accounting under the race: the elected leader built the
		// matrix once (V Dijkstras, V misses); every other worker is one hit,
		// whether it waited on the flight or arrived after publication.
		snap := instrument.Snapshot()
		V := int64(g.NumNodes())
		if got := snap["graph.distcache_matrix_builds"]; got != 1 {
			t.Fatalf("trial %d: matrix builds = %d, want exactly 1 (duplicate cold build)", trial, got)
		}
		if got := snap["graph.dijkstra_calls"]; got != V {
			t.Fatalf("trial %d: dijkstra calls = %d, want exactly %d", trial, got, V)
		}
		if got := snap["graph.distcache_misses"]; got != V {
			t.Fatalf("trial %d: misses = %d, want exactly %d (one per source)", trial, got, V)
		}
		if got := snap["graph.distcache_hits"]; got != workers-1 {
			t.Fatalf("trial %d: hits = %d, want exactly %d (one per non-leader)", trial, got, workers-1)
		}
		for w := 1; w < workers; w++ {
			if mats[w] != mats[0] {
				t.Fatalf("trial %d: worker %d got a non-canonical matrix", trial, w)
			}
		}
		for u := 0; u < g.NumNodes(); u++ {
			fresh := g.dijkstra(NodeID(u))
			for v := 0; v < g.NumNodes(); v++ {
				if got := mats[0].Between(NodeID(u), NodeID(v)); got != fresh.Dist[v] {
					t.Fatalf("trial %d: raced matrix %d→%d = %v, fresh = %v",
						trial, u, v, got, fresh.Dist[v])
				}
			}
		}
	}
}

// TestDistanceCacheColdShortestConcurrent races many goroutines on ONE cold
// source: singleflight must elect a single leader (one Dijkstra, one miss)
// and serve everyone else the canonical tree as a hit.
func TestDistanceCacheColdShortestConcurrent(t *testing.T) {
	instrument.Enable()
	defer instrument.Disable()
	defer instrument.Reset()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(rng, 50, 0.1, trial%2 == 0)
		c := NewDistanceCache(g)
		const workers = 16
		trees := make([]*ShortestPaths, workers)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(workers)
		instrument.Reset()
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer done.Done()
				start.Wait()
				trees[w] = c.Shortest(3)
			}(w)
		}
		start.Done()
		done.Wait()
		snap := instrument.Snapshot()
		if got := snap["graph.dijkstra_calls"]; got != 1 {
			t.Fatalf("trial %d: dijkstra calls = %d, want exactly 1 (duplicate cold Dijkstra)", trial, got)
		}
		if got := snap["graph.distcache_misses"]; got != 1 {
			t.Fatalf("trial %d: misses = %d, want exactly 1", trial, got)
		}
		if got := snap["graph.distcache_hits"]; got != workers-1 {
			t.Fatalf("trial %d: hits = %d, want exactly %d", trial, got, workers-1)
		}
		for w := 1; w < workers; w++ {
			if trees[w] != trees[0] {
				t.Fatalf("trial %d: worker %d got a non-canonical tree", trial, w)
			}
		}
	}
}

// TestDistanceCacheColdRowsConcurrent races many goroutines on cold delay
// rows, every goroutine asking for the same few targets in its own order, as
// BuildRows' workers and a concurrent reader would: each target must cost
// exactly one Dijkstra and one row build, every caller must receive the one
// canonical row, and the row must equal the matrix column it stands for.
// Run under -race (ci.sh does).
func TestDistanceCacheColdRowsConcurrent(t *testing.T) {
	instrument.Enable()
	defer instrument.Disable()
	defer instrument.Reset()
	rng := rand.New(rand.NewSource(19))
	targets := []NodeID{0, 3, 7, 11, 29}
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(rng, 40, 0.1, trial%2 == 0)
		c := NewDistanceCache(g)
		const workers = 16
		rows := make([][][]float64, workers) // [worker][target]
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(workers)
		instrument.Reset()
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer done.Done()
				rows[w] = make([][]float64, len(targets))
				start.Wait() // line everyone up on the cold cache
				for i := range targets {
					j := (i + w) % len(targets)
					rows[w][j] = c.To(targets[j])
				}
			}(w)
		}
		start.Done()
		done.Wait()
		snap := instrument.Snapshot()
		want := int64(len(targets))
		if got := snap["graph.dijkstra_calls"]; got != want {
			t.Fatalf("trial %d: dijkstra calls = %d, want exactly %d (one per target)", trial, got, want)
		}
		if got := snap["graph.distcache_row_builds"]; got != want {
			t.Fatalf("trial %d: row builds = %d, want exactly %d (duplicate cold row)", trial, got, want)
		}
		if got := snap["graph.distcache_misses"]; got != want {
			t.Fatalf("trial %d: misses = %d, want exactly %d", trial, got, want)
		}
		m := g.AllPairsShortestPaths()
		for j, tg := range targets {
			for w := 1; w < workers; w++ {
				if &rows[w][j][0] != &rows[0][j][0] {
					t.Fatalf("trial %d: worker %d got a non-canonical row for target %d", trial, w, tg)
				}
			}
			for v, got := range rows[0][j] {
				if want := m.Between(NodeID(v), tg); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: To(%d)[%d] = %v, Between(%d, %d) = %v", trial, tg, v, got, v, tg, want)
				}
			}
		}
	}
}

// TestDistanceCacheStats checks the hit/miss accounting the -stats flag and
// bench/'s graph.dijkstra_calls surface.
func TestDistanceCacheStats(t *testing.T) {
	instrument.Reset()
	instrument.Enable()
	defer instrument.Disable()
	defer instrument.Reset()

	g := randomGraph(rand.New(rand.NewSource(3)), 20, 0.2, true)
	c := NewDistanceCache(g)
	c.Shortest(0) // miss
	c.Shortest(0) // hit
	c.Shortest(1) // miss
	snap := instrument.Snapshot()
	if snap["graph.distcache_misses"] != 2 {
		t.Fatalf("misses = %d, want 2", snap["graph.distcache_misses"])
	}
	if snap["graph.distcache_hits"] != 1 {
		t.Fatalf("hits = %d, want 1", snap["graph.distcache_hits"])
	}
	if snap["graph.dijkstra_calls"] != 2 {
		t.Fatalf("dijkstra calls = %d, want 2", snap["graph.dijkstra_calls"])
	}
}

// TestDisconnectedSentinels is the regression test for the documented
// disconnected-pair behavior on a transit-stub-shaped topology whose two
// stub domains are NOT bridged: Between and the cached trees must return
// math.Inf(1) (never a finite stand-in), and PathTo must return nil.
func TestDisconnectedSentinels(t *testing.T) {
	// Two stub domains of 3 nodes each around their own transit node, with
	// no link between the domains — a disconnected transit-stub layout.
	g := New(8)
	// Domain A: transit 0, stubs 1,2,3.
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 4)
	g.AddEdge(1, 2, 1)
	// Domain B: transit 4, stubs 5,6,7.
	g.AddEdge(4, 5, 2)
	g.AddEdge(4, 6, 2)
	g.AddEdge(5, 6, 1)
	g.AddEdge(6, 7, 2)

	m := g.AllPairsShortestPaths()
	cache := NewDistanceCache(g)

	for _, u := range []NodeID{0, 1, 2, 3} {
		for _, v := range []NodeID{4, 5, 6, 7} {
			if d := m.Between(u, v); !math.IsInf(d, 1) {
				t.Fatalf("matrix Between(%d,%d) = %v, want +Inf sentinel", u, v, d)
			}
			if d := cache.Shortest(u).Dist[v]; !math.IsInf(d, 1) {
				t.Fatalf("cache Dist(%d,%d) = %v, want +Inf sentinel", u, v, d)
			}
			if p := cache.Shortest(u).PathTo(v); p != nil {
				t.Fatalf("PathTo(%d→%d) = %v, want nil", u, v, p)
			}
		}
	}

	// Within-domain distances stay finite.
	if d := m.Between(1, 3); math.IsInf(d, 1) {
		t.Fatalf("Between(1,3) infinite on connected pair")
	}
}
