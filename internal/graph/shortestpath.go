package graph

import "math"

// Infinity is the distance reported between disconnected nodes.
var Infinity = math.Inf(1)

// heapItem is one entry of the Dijkstra priority queue.
type heapItem struct {
	node NodeID
	dist float64
}

// distHeap is a binary min-heap on tentative distance. It is a typed copy of
// container/heap's sift — the same parent/child indices and the same strict
// comparisons, moving a hole instead of swapping — so entries of equal
// distance pop in exactly the order container/heap would pop them: the
// parent arrays, not only the distances, match the interface-based kernel
// kept in reference_test.go on every source (TestDijkstraMatchesReference).
// Typed because that kernel spent most of its time calling Less and Swap
// through an interface and boxing one heapItem per push.
type distHeap []heapItem

func (h *distHeap) push(it heapItem) {
	s := append(*h, it)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(it.dist < s[i].dist) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = it
	*h = s
}

func (h *distHeap) pop() heapItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	it := s[n] // the last entry moves to the root and sifts down
	s = s[:n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].dist < s[j].dist {
			j = j2
		}
		if !(s[j].dist < it.dist) {
			break
		}
		s[i] = s[j]
		i = j
	}
	if n > 0 {
		s[i] = it
	}
	*h = s
	return top
}

// ShortestPaths holds single-source shortest-path distances and the tree
// they were found on.
type ShortestPaths struct {
	Source NodeID
	Dist   []float64
	// parent[v] is v's predecessor on its path from Source (node -1 for the
	// source and for unreachable nodes) and the weight of the edge between
	// them, so a path's weights can be summed again in either direction.
	parent []parentEdge
}

// parentEdge is one tree edge, stored beside its child node.
type parentEdge struct {
	node NodeID
	w    float64
}

// dijkstra computes shortest paths from src using a binary heap; it runs in
// O((V+E) log V). Unreachable nodes have distance Infinity.
//
// A run allocates its result (Dist, parent, the struct) and the heap's
// storage, nothing per push. Improved entries are pushed again rather than
// moved, so the heap can hold up to 2E+1 entries; it is sized for 4V, above
// the 1.1–3.1 V the generated topologies peak at between 30 and 1000 compute
// nodes (2E+1 would be 0.9 MB a run at 500), and append grows it on a graph
// that needs more.
//
// It is unexported so that every other package gets its trees from a
// DistanceCache, which memoizes them; only the cache calls it.
func (g *Graph) dijkstra(src NodeID) *ShortestPaths {
	g.check(src)
	dijkstraCalls.Inc()
	n := len(g.adj)
	sp := &ShortestPaths{
		Source: src,
		Dist:   make([]float64, n),
		parent: make([]parentEdge, n),
	}
	for i := range sp.Dist {
		sp.Dist[i] = Infinity
		sp.parent[i].node = -1
	}
	sp.Dist[src] = 0
	h := make(distHeap, 1, min(2*g.edges+1, 4*n))
	h[0] = heapItem{node: src, dist: 0}
	for len(h) > 0 {
		it := h.pop()
		if it.dist > sp.Dist[it.node] {
			continue // stale entry
		}
		for _, nb := range g.adj[it.node] {
			if d := it.dist + nb.w; d < sp.Dist[nb.to] {
				sp.Dist[nb.to] = d
				sp.parent[nb.to] = parentEdge{node: it.node, w: nb.w}
				h.push(heapItem{node: nb.to, dist: d})
			}
		}
	}
	return sp
}

// PathTo reconstructs the shortest path from the source to dst, inclusive of
// both endpoints. It returns nil when dst is unreachable.
func (sp *ShortestPaths) PathTo(dst NodeID) []NodeID {
	if int(dst) >= len(sp.Dist) || dst < 0 || math.IsInf(sp.Dist[dst], 1) {
		return nil
	}
	var rev []NodeID
	for v := dst; v != -1; v = sp.parent[v].node {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// DistanceMatrix holds all-pairs shortest-path distances.
type DistanceMatrix struct {
	n    int
	dist []float64
}

// Between returns the shortest-path distance between u and v. Disconnected
// pairs return the documented sentinel math.Inf(1) (== Infinity), never an
// arbitrary large finite value: callers compare against deadlines, and a
// disconnected pair must fail every deadline check rather than almost all of
// them.
func (m *DistanceMatrix) Between(u, v NodeID) float64 {
	return m.dist[int(u)*m.n+int(v)]
}
