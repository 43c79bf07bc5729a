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

// ShortestPaths holds single-source shortest-path distances and parents.
type ShortestPaths struct {
	Source NodeID
	Dist   []float64
	parent []NodeID
}

// Dijkstra computes shortest paths from src using a binary heap; it runs in
// O((V+E) log V). Unreachable nodes have distance Infinity.
//
// A run allocates its result (Dist, parent, the struct) and the heap's
// storage, nothing per push. Improved entries are pushed again rather than
// moved, so the heap can hold up to 2E+1 entries; it is sized for 4V, above
// the 1.1–3.1 V the generated topologies peak at between 30 and 1000 compute
// nodes (2E+1 would be 0.9 MB a run at 500), and append grows it on a graph
// that needs more.
//
// Callers that resolve many sources over one graph should go through a
// DistanceCache instead, which memoizes these trees.
func (g *Graph) Dijkstra(src NodeID) *ShortestPaths {
	g.check(src)
	dijkstraCalls.Inc()
	n := len(g.adj)
	sp := &ShortestPaths{
		Source: src,
		Dist:   make([]float64, n),
		parent: make([]NodeID, n),
	}
	for i := range sp.Dist {
		sp.Dist[i] = Infinity
		sp.parent[i] = -1
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
				sp.parent[nb.to] = it.node
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
	for v := dst; v != -1; v = sp.parent[v] {
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

// NumNodes returns the node count the matrix was built for.
func (m *DistanceMatrix) NumNodes() int { return m.n }

// Between returns the shortest-path distance between u and v. Disconnected
// pairs return the documented sentinel math.Inf(1) (== Infinity), never an
// arbitrary large finite value: callers compare against deadlines, and a
// disconnected pair must fail every deadline check rather than almost all of
// them.
func (m *DistanceMatrix) Between(u, v NodeID) float64 {
	return m.dist[int(u)*m.n+int(v)]
}

// Eccentricity returns the maximum finite distance from u to any reachable
// node.
func (m *DistanceMatrix) Eccentricity(u NodeID) float64 {
	max := 0.0
	for v := 0; v < m.n; v++ {
		if d := m.dist[int(u)*m.n+v]; !math.IsInf(d, 1) && d > max {
			max = d
		}
	}
	return max
}

// Medoid returns the member of the given set minimizing the sum of distances
// to all other members; ties break toward the smaller ID. It panics on an
// empty set because a medoid of nothing indicates a caller bug.
//
// Disconnected sets are handled deterministically: members contribute
// Between's math.Inf(1) sentinel for each unreachable peer, so the medoid is
// the member reaching the most peers, breaking ties by the finite distance sum
// over the peers it does reach, then by smaller ID. On connected sets (every
// topology the generators emit, since they repair connectivity) the result
// is identical to the plain minimum-sum medoid.
func (m *DistanceMatrix) Medoid(set []NodeID) NodeID {
	if len(set) == 0 {
		panic("graph: medoid of empty set")
	}
	best := set[0]
	bestReach, bestSum := -1, math.Inf(1)
	for _, u := range set {
		reach, sum := 0, 0.0
		for _, v := range set {
			d := m.Between(u, v)
			if math.IsInf(d, 1) {
				continue // unreachable peer: excluded from the finite sum
			}
			reach++
			sum += d
		}
		if reach > bestReach ||
			(reach == bestReach && sum < bestSum) ||
			(reach == bestReach && sum == bestSum && u < best) {
			best, bestReach, bestSum = u, reach, sum
		}
	}
	return best
}
