package graph

import "container/heap"

// The kernel Dijkstra replaced and the serial all-pairs loop Matrix replaced,
// kept as test oracles (the kernel's one edit since is the element type of
// its parent slice, which now carries the edge weight):
// TestDijkstraMatchesReference requires the typed heap to reproduce
// DijkstraReference's Dist bits and parent array on every source,
// TestMatrixMatchesSerial requires the parallel Matrix to equal
// AllPairsShortestPaths bit for bit.

// pqItem is one entry of the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap on tentative distance.
type pq []pqItem

func (h pq) Len() int            { return len(h) }
func (h pq) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h pq) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *pq) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// DijkstraReference is the replaced kernel (exported to kernel_test.go, an
// external test package because it builds its graphs with internal/topology,
// which imports this one).
func (g *Graph) DijkstraReference(src NodeID) *ShortestPaths {
	g.check(src)
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
	h := &pq{{node: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.dist > sp.Dist[it.node] {
			continue // stale entry
		}
		for _, nb := range g.adj[it.node] {
			if d := it.dist + nb.w; d < sp.Dist[nb.to] {
				sp.Dist[nb.to] = d
				sp.parent[nb.to] = parentEdge{node: it.node, w: nb.w}
				heap.Push(h, pqItem{node: nb.to, dist: d})
			}
		}
	}
	return sp
}

// AllPairsShortestPaths runs Dijkstra from every node, one after another.
func (g *Graph) AllPairsShortestPaths() *DistanceMatrix {
	n := len(g.adj)
	m := &DistanceMatrix{n: n, dist: make([]float64, n*n)}
	for u := 0; u < n; u++ {
		sp := g.dijkstra(NodeID(u))
		copy(m.dist[u*n:(u+1)*n], sp.Dist)
	}
	return m
}

// Parents exposes the shortest-path tree: Parents()[v] is v's predecessor on
// its path from the source, -1 for the source and for unreachable nodes.
func (sp *ShortestPaths) Parents() []NodeID {
	out := make([]NodeID, len(sp.parent))
	for v, e := range sp.parent {
		out[v] = e.node
	}
	return out
}
