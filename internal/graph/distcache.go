package graph

import (
	"math"
	"sync"
	"sync/atomic"

	"edgerep/internal/instrument"
	"edgerep/internal/par"
)

// Instrumentation of the shortest-path hot path (enabled via
// instrument.Enable, surfaced by the cmd/ binaries' -stats flag).
var (
	dijkstraCalls   = instrument.NewCounter("graph.dijkstra_calls")
	distCacheHits   = instrument.NewCounter("graph.distcache_hits")
	distCacheMisses = instrument.NewCounter("graph.distcache_misses")
	distCacheRows   = instrument.NewCounter("graph.distcache_row_builds")
	distCacheMatrix = instrument.NewCounter("graph.distcache_matrix_builds")
)

// DistanceCache memoizes per-source Dijkstra trees over one immutable Graph
// and the two views of distance built from them: the delay row towards one
// target (To), which is what the delay model reads, and the all-pairs
// DistanceMatrix (Matrix), which only the partitioning baseline and tests
// need. Every consumer of network distances — the topology's delay rows
// (internal/topology), explicit path routing (internal/routing), the
// partitioner (internal/partition via the matrix), and the placement
// algorithms that read all of them — shares a single shortest-path
// computation per source instead of re-running Dijkstra per package.
//
// The cache is safe for concurrent use, and cold misses are single-flight:
// concurrent callers racing on an uncomputed tree, row or matrix elect one
// leader to run the computation while the rest wait on its result, so no
// Dijkstra, row or O(V²) matrix build ever runs twice. That also makes the
// hit/miss stats exact under races — a miss is a call that actually
// performed the work, a hit is a call served from the cache or from a
// leader's in-flight computation (it paid a wait, not a recomputation).
// TestDistanceCacheColdMatrixConcurrent and TestDistanceCacheColdRowsConcurrent
// assert the exact counts. A computed value is read without taking the lock.
//
// The graph must not gain edges after the cache is created; Graph has no
// edge-removal API, and the topology generators finish mutation before the
// cache is built.
type DistanceCache struct {
	g *Graph

	// mu guards the flights' channels. Published values are read without
	// it: EvalDelay reads a row on every call, as it read the matrix that
	// the rows replace, which was a plain field.
	mu sync.Mutex
	// sp[u] is the memoized Dijkstra tree from source u. Trees keep their
	// parent edges, so routing path reconstruction and the rows are also
	// served by the cache.
	sp []flight[ShortestPaths]
	// to[t] is the memoized delay row towards target t (see To).
	to []flight[[]float64]
	// matrix is the lazily-built all-pairs view over the same trees.
	matrix flight[DistanceMatrix]
}

// flight is one single-flight slot: the published value, and while it is
// being computed the channel its leader closes on publication.
type flight[T any] struct {
	v  atomic.Pointer[T]
	ch chan struct{} // guarded by DistanceCache.mu
}

// resolve returns f's value, computing it first if nobody has. Concurrent
// callers on an unpublished slot elect one leader (computed = true), which
// runs compute outside the lock; the others wait for its publication and
// return the leader's value with computed = false.
func resolve[T any](mu *sync.Mutex, f *flight[T], compute func() *T) (v *T, computed bool) {
	for {
		if v = f.v.Load(); v != nil {
			return v, false
		}
		mu.Lock()
		if v = f.v.Load(); v != nil {
			mu.Unlock()
			return v, false
		}
		if wait := f.ch; wait != nil {
			mu.Unlock()
			<-wait
			continue // the leader has published; the next load is a hit
		}
		ch := make(chan struct{})
		f.ch = ch
		mu.Unlock()
		v = compute()
		mu.Lock()
		f.v.Store(v)
		f.ch = nil
		mu.Unlock()
		close(ch)
		return v, true
	}
}

// NewDistanceCache creates an empty cache over g.
func NewDistanceCache(g *Graph) *DistanceCache {
	return &DistanceCache{
		g:  g,
		sp: make([]flight[ShortestPaths], len(g.adj)),
		to: make([]flight[[]float64], len(g.adj)),
	}
}

// Shortest returns the (memoized) Dijkstra tree rooted at src. Concurrent
// callers racing on an uncomputed source elect one leader; the others wait
// for its publication, so exactly one Dijkstra runs per source and exactly
// one miss is counted per computed tree.
func (c *DistanceCache) Shortest(src NodeID) *ShortestPaths {
	c.g.check(src)
	sp, computed := resolve(&c.mu, &c.sp[src], func() *ShortestPaths { return c.g.dijkstra(src) })
	if computed {
		distCacheMisses.Inc()
	} else {
		distCacheHits.Inc()
	}
	return sp
}

// From returns the distances from s to every node: Shortest(s).Dist, which
// is Matrix().Between(s, ·) by construction, since the matrix's row s is a
// copy of it.
func (c *DistanceCache) From(s NodeID) []float64 {
	return c.Shortest(s).Dist
}

// To returns the distances from every node to t: To(t)[v] is the weight of
// v's path in t's Dijkstra tree, summed from v's end towards t — the order in
// which v's own Dijkstra adds the same edges, so it is Matrix().Between(v, t)
// bit for bit whenever both trees pick the same path (t's tree read as is,
// Shortest(t).Dist[v], sums the other way and differs from Between(v, t) in
// the last bit on about one pair in twelve). That equality is checked, not
// proven: TestDelayRowsMatchMatrix compares every pair of every instance
// shape the repository builds against the matrix. Unreachable nodes read
// Infinity. The row costs t's Dijkstra (shared with Shortest and From) and a
// few adds a node; it is memoized and single-flight like the trees, and read
// without a lock once built. Callers must not modify it.
func (c *DistanceCache) To(t NodeID) []float64 {
	c.g.check(t)
	row, computed := resolve(&c.mu, &c.to[t], func() *[]float64 {
		r := c.Shortest(t).resum()
		return &r
	})
	if computed {
		distCacheRows.Inc()
	}
	return *row
}

// BuildRows builds To(t) for every target on GOMAXPROCS workers, so that later
// readers find them built (placement.NewProblem passes the query homes; the
// trees of other sources, a dataset origin's among them, are built by their
// first reader). Each row goes through To, so the single-flight and
// the counts hold when targets repeat or other callers race it.
func (c *DistanceCache) BuildRows(targets []NodeID) {
	par.Do(len(targets), func(i int) { c.To(targets[i]) })
}

// resum returns, for every node v, the weights of v's tree path summed from v
// towards the source: 0 + w(v, p(v)) + w(p(v), p(p(v))) + … in that order.
func (sp *ShortestPaths) resum() []float64 {
	row := make([]float64, len(sp.Dist))
	for v := range row {
		if math.IsInf(sp.Dist[v], 1) {
			row[v] = Infinity
			continue
		}
		s := 0.0
		for u := NodeID(v); u != sp.Source; u = sp.parent[u].node {
			s += sp.parent[u].w
		}
		row[v] = s
	}
	return row
}

// Matrix returns the all-pairs distance matrix, built once from the memoized
// per-source trees (sources already computed — e.g. by routing or the rows —
// are not recomputed) and cached for subsequent calls. The first
// materialization is single-flight: one leader builds while concurrent
// callers wait for the canonical matrix, so a cold race costs one build, not
// W. The leader resolves the V sources on GOMAXPROCS workers — rows are
// independent, each goes through Shortest (so the per-source single-flight
// and the hit/miss counts hold) and is copied into its own slice of the
// matrix — and the result is the serial loop's bit for bit
// (TestMatrixMatchesSerial). The matrix is complete when Matrix returns.
func (c *DistanceCache) Matrix() *DistanceMatrix {
	m, computed := resolve(&c.mu, &c.matrix, func() *DistanceMatrix {
		n := len(c.g.adj)
		m := &DistanceMatrix{n: n, dist: make([]float64, n*n)}
		par.Do(n, func(u int) {
			copy(m.dist[u*n:(u+1)*n], c.Shortest(NodeID(u)).Dist)
		})
		return m
	})
	if computed {
		distCacheMatrix.Inc()
	} else {
		distCacheHits.Inc()
	}
	return m
}
