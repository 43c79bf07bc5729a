package graph

import (
	"sync"

	"edgerep/internal/instrument"
	"edgerep/internal/par"
)

// Instrumentation of the shortest-path hot path (enabled via
// instrument.Enable, surfaced by the cmd/ binaries' -stats flag).
var (
	dijkstraCalls   = instrument.NewCounter("graph.dijkstra_calls")
	distCacheHits   = instrument.NewCounter("graph.distcache_hits")
	distCacheMisses = instrument.NewCounter("graph.distcache_misses")
	distCacheMatrix = instrument.NewCounter("graph.distcache_matrix_builds")
)

// DistanceCache memoizes per-source Dijkstra trees over one immutable Graph
// and materializes the all-pairs DistanceMatrix from them (on first request,
// all rows at once, in parallel), so that
// every consumer of network distances — the topology's delay matrix
// (internal/topology), explicit path routing (internal/routing), the
// partitioner (internal/partition via the matrix), and the placement
// algorithms that read all of them — shares a single shortest-path
// computation per source instead of re-running Dijkstra per package.
//
// The cache is safe for concurrent use, and cold misses are single-flight:
// concurrent callers racing on an uncomputed source (or the uncomputed
// matrix) elect one leader to run the computation while the rest wait on its
// result, so no Dijkstra or O(V²) matrix build ever runs twice. That also
// makes the hit/miss stats exact under races — a miss is a call that
// actually performed the work, a hit is a call served from the cache or
// from a leader's in-flight computation (it paid a wait, not a
// recomputation). TestDistanceCacheColdMatrixConcurrent asserts the exact
// counts.
//
// The graph must not gain edges after the cache is created; Graph has no
// edge-removal API, and the topology generators finish mutation before the
// cache is built.
type DistanceCache struct {
	g *Graph

	mu sync.Mutex
	// sp[u] is the memoized Dijkstra tree from source u (nil = not yet
	// computed). Trees keep their parent arrays, so routing path
	// reconstruction is also served by the cache.
	sp []*ShortestPaths
	// spFlight[u], when non-nil, is the in-flight marker for source u: the
	// leader computing the tree closes it after publishing, and waiters block
	// on the close instead of duplicating the Dijkstra.
	spFlight []chan struct{}
	// matrix is the lazily-built all-pairs view over the same trees;
	// matrixFlight single-flights its first materialization.
	matrix       *DistanceMatrix
	matrixFlight chan struct{}
}

// NewDistanceCache creates an empty cache over g.
func NewDistanceCache(g *Graph) *DistanceCache {
	return &DistanceCache{
		g:        g,
		sp:       make([]*ShortestPaths, len(g.adj)),
		spFlight: make([]chan struct{}, len(g.adj)),
	}
}

// claimShortest is the singleflight gate for one source: it returns the
// cached tree if present, else the flight to wait on, else (claimed=true)
// registers the caller as the leader who must compute and publish.
func (c *DistanceCache) claimShortest(src NodeID) (sp *ShortestPaths, wait chan struct{}, claimed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sp = c.sp[src]; sp != nil {
		return sp, nil, false
	}
	if ch := c.spFlight[src]; ch != nil {
		return nil, ch, false
	}
	c.spFlight[src] = make(chan struct{})
	return nil, nil, true
}

// publishShortest installs the leader's tree and releases its waiters.
func (c *DistanceCache) publishShortest(src NodeID, sp *ShortestPaths) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sp[src] = sp
	close(c.spFlight[src])
	c.spFlight[src] = nil
}

// Shortest returns the (memoized) Dijkstra tree rooted at src. Concurrent
// callers racing on an uncomputed source elect one leader; the others wait
// for its publication, so exactly one Dijkstra runs per source and exactly
// one miss is counted per computed tree.
func (c *DistanceCache) Shortest(src NodeID) *ShortestPaths {
	c.g.check(src)
	for {
		sp, wait, claimed := c.claimShortest(src)
		if sp != nil {
			distCacheHits.Inc()
			return sp
		}
		if !claimed {
			<-wait
			continue // the leader has published; the next claim is a hit
		}
		distCacheMisses.Inc()
		sp = c.g.dijkstra(src)
		c.publishShortest(src, sp)
		return sp
	}
}

// claimMatrix is claimShortest for the all-pairs materialization.
func (c *DistanceCache) claimMatrix() (m *DistanceMatrix, wait chan struct{}, claimed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m = c.matrix; m != nil {
		return m, nil, false
	}
	if c.matrixFlight != nil {
		return nil, c.matrixFlight, false
	}
	c.matrixFlight = make(chan struct{})
	return nil, nil, true
}

// publishMatrix installs the leader's matrix and releases its waiters.
func (c *DistanceCache) publishMatrix(m *DistanceMatrix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.matrix = m
	close(c.matrixFlight)
	c.matrixFlight = nil
}

// Matrix returns the all-pairs distance matrix, built once from the memoized
// per-source trees (sources already computed — e.g. by routing — are not
// recomputed) and cached for subsequent calls. The first materialization is
// single-flight: one leader builds while concurrent callers wait for the
// canonical matrix, so a cold race costs one build, not W. The leader
// resolves the V sources on GOMAXPROCS workers — rows are independent, each
// goes through Shortest (so the per-source single-flight and the hit/miss
// counts hold) and is copied into its own slice of the matrix — and the
// result is the serial loop's bit for bit (TestMatrixMatchesSerial). The
// matrix is complete when Matrix returns; nothing is left to a later reader.
func (c *DistanceCache) Matrix() *DistanceMatrix {
	for {
		m, wait, claimed := c.claimMatrix()
		if m != nil {
			distCacheHits.Inc()
			return m
		}
		if !claimed {
			<-wait
			continue
		}
		distCacheMatrix.Inc()
		n := len(c.g.adj)
		m = &DistanceMatrix{n: n, dist: make([]float64, n*n)}
		par.Do(n, func(u int) {
			copy(m.dist[u*n:(u+1)*n], c.Shortest(NodeID(u)).Dist)
		})
		c.publishMatrix(m)
		return m
	}
}
