package graph

import (
	"fmt"
	"math"
	"sort"
)

// WeightedPath is one loopless path with its total weight.
type WeightedPath struct {
	Nodes  []NodeID
	Weight float64
}

// equalPath reports whether two node sequences are identical.
func equalPath(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// non-decreasing weight order (Yen's algorithm). Fewer than k paths are
// returned when the graph does not contain them. The result is empty when
// dst is unreachable. Multipath transfer spreading in internal/routing uses
// this to divert intermediate-result traffic off bottleneck links.
func (g *Graph) KShortestPaths(src, dst NodeID, k int) ([]WeightedPath, error) {
	g.check(src)
	g.check(dst)
	if k < 1 {
		return nil, fmt.Errorf("graph: k = %d, need ≥ 1", k)
	}
	first := g.dijkstra(src)
	base := first.PathTo(dst)
	if base == nil {
		return nil, nil
	}
	paths := []WeightedPath{{Nodes: base, Weight: first.Dist[dst]}}
	var candidates []WeightedPath

	for len(paths) < k {
		prev := paths[len(paths)-1].Nodes
		// Each node of the previous path (except the last) is a spur.
		for i := 0; i < len(prev)-1; i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]

			// Build a filtered graph: remove edges used by previous
			// paths sharing the root, and remove root nodes except the
			// spur to keep paths loopless.
			banned := make(map[[2]NodeID]bool)
			for _, p := range paths {
				if len(p.Nodes) > i && equalPath(p.Nodes[:i+1], rootPath) && len(p.Nodes) > i+1 {
					banned[[2]NodeID{p.Nodes[i], p.Nodes[i+1]}] = true
					banned[[2]NodeID{p.Nodes[i+1], p.Nodes[i]}] = true
				}
			}
			removed := make(map[NodeID]bool)
			for _, v := range rootPath[:len(rootPath)-1] {
				removed[v] = true
			}

			spurPath, spurWeight := g.dijkstraFiltered(spurNode, dst, banned, removed)
			if spurPath == nil {
				continue
			}
			total := append(append([]NodeID(nil), rootPath[:len(rootPath)-1]...), spurPath...)
			rootWeight := 0.0
			for j := 1; j < len(rootPath); j++ {
				w, ok := g.EdgeWeight(rootPath[j-1], rootPath[j])
				if !ok {
					return nil, fmt.Errorf("graph: root path uses missing edge %d-%d", rootPath[j-1], rootPath[j])
				}
				rootWeight += w
			}
			cand := WeightedPath{Nodes: total, Weight: rootWeight + spurWeight}
			dup := false
			for _, c := range candidates {
				if equalPath(c.Nodes, cand.Nodes) {
					dup = true
					break
				}
			}
			for _, p := range paths {
				if equalPath(p.Nodes, cand.Nodes) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].Weight != candidates[b].Weight {
				return candidates[a].Weight < candidates[b].Weight
			}
			return len(candidates[a].Nodes) < len(candidates[b].Nodes)
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

// dijkstraFiltered runs Dijkstra from src to dst on the graph minus banned
// edges and removed nodes, returning the path and its weight (nil when
// unreachable).
func (g *Graph) dijkstraFiltered(src, dst NodeID, banned map[[2]NodeID]bool, removed map[NodeID]bool) ([]NodeID, float64) {
	if removed[src] || removed[dst] {
		return nil, 0
	}
	n := len(g.adj)
	dist := make([]float64, n)
	parent := make([]NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	// Small frontier: plain slice-based priority selection is fine for the
	// filtered searches (they run on already-small graphs).
	visited := make([]bool, n)
	for {
		u := NodeID(-1)
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !visited[i] && dist[i] < best {
				best = dist[i]
				u = NodeID(i)
			}
		}
		if u == -1 {
			break
		}
		if u == dst {
			break
		}
		visited[u] = true
		for _, nb := range g.adj[u] {
			if removed[nb.to] || banned[[2]NodeID{u, nb.to}] {
				continue
			}
			if d := dist[u] + nb.w; d < dist[nb.to] {
				dist[nb.to] = d
				parent[nb.to] = u
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0
	}
	var rev []NodeID
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, dist[dst]
}
