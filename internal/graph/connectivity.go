package graph

import "sort"

// Components returns the connected components of the graph, each sorted by
// node ID, and the list sorted by its smallest member.
func (g *Graph) Components() [][]NodeID {
	n := len(g.adj)
	seen := make([]bool, n)
	var comps [][]NodeID
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{NodeID(start)}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, nb := range g.adj[u] {
				if !seen[nb.to] {
					seen[nb.to] = true
					stack = append(stack, nb.to)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// Connect augments the graph into a single component by linking the first
// node of each extra component to the first node of the first component with
// edges of weight w. It returns the number of edges added. Random topologies
// (edge probability 0.2, as in the paper's GT-ITM setup) are occasionally
// disconnected; the paper implicitly assumes connectivity, so the topology
// builder repairs them with this method.
func (g *Graph) Connect(w float64) int {
	comps := g.Components()
	if len(comps) <= 1 {
		return 0
	}
	root := comps[0][0]
	for _, comp := range comps[1:] {
		g.AddEdge(root, comp[0], w)
	}
	return len(comps) - 1
}
