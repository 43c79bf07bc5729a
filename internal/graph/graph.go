// Package graph provides the weighted-graph substrate used by the edge-cloud
// topology, the placement algorithms, and the partitioning baseline.
//
// Graphs are undirected and edge-weighted; weights model per-unit-data
// transmission delays on links of the two-tier edge cloud. The package
// implements shortest paths (Dijkstra on a typed binary heap: no interface
// dispatch, nothing boxed per push), the DistanceCache that memoizes their
// trees, each built once on its first read, the delay row towards each
// target the model reads (built from the target's tree alone, in the bits of
// the all-pairs matrix; a placement problem builds those of its query homes
// up front, and no other) and, for the
// callers that need all pairs, the DistanceMatrix, built lazily on every
// core; connected components, and spanning-tree augmentation used to repair
// disconnected random topologies.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node inside one Graph. IDs are dense: a graph with n
// nodes uses IDs 0..n-1.
type NodeID int

// Edge is one undirected weighted edge.
type Edge struct {
	From   NodeID
	To     NodeID
	Weight float64
}

// neighbor is one adjacency entry.
type neighbor struct {
	to NodeID
	w  float64
}

// Graph is an undirected graph with non-negative edge weights. The zero
// value is an empty graph ready to use.
type Graph struct {
	adj   [][]neighbor
	edges int
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{adj: make([][]neighbor, n)}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges in the graph.
func (g *Graph) NumEdges() int { return g.edges }

// AddEdge inserts an undirected edge between u and v with weight w.
// It panics on out-of-range nodes, self loops, or negative weights, all of
// which indicate construction bugs rather than runtime conditions.
func (g *Graph) AddEdge(u, v NodeID, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self loop at node %d", u))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid weight %v on edge %d-%d", w, u, v))
	}
	g.adj[u] = append(g.adj[u], neighbor{to: v, w: w})
	g.adj[v] = append(g.adj[v], neighbor{to: u, w: w})
	g.edges++
}

// Neighbors calls fn for every neighbor of u with the connecting edge weight.
// Iteration order is insertion order and deterministic.
func (g *Graph) Neighbors(u NodeID, fn func(v NodeID, w float64)) {
	g.check(u)
	for _, nb := range g.adj[u] {
		fn(nb.to, nb.w)
	}
}

// Edges returns all undirected edges with From < To, sorted by (From, To).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u := range g.adj {
		for _, nb := range g.adj[u] {
			if NodeID(u) < nb.to {
				out = append(out, Edge{From: NodeID(u), To: nb.to, Weight: nb.w})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func (g *Graph) check(u NodeID) {
	if u < 0 || int(u) >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, len(g.adj)))
	}
}
