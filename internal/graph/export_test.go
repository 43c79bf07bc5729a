package graph

// Dijkstra exports the single-source kernel to kernel_test.go, an external
// test package because it builds its graphs with internal/topology, which
// imports this one. Outside tests the kernel is unexported: every other
// package gets its shortest paths through a DistanceCache.
func (g *Graph) Dijkstra(src NodeID) *ShortestPaths { return g.dijkstra(src) }

// NumNodes exports the node count a matrix was built for to kernel_test.go,
// which checks it against the graph's.
func (m *DistanceMatrix) NumNodes() int { return m.n }
