// Package partition implements k-way graph partitioning over shortest-path
// distances. The paper's second benchmark (Graph-S / Graph-G) follows Golab
// et al. [10], which places data via graph partitioning to minimize
// communication cost; this package supplies that substrate: greedy region
// growing seeded by a farthest-point heuristic, followed by a
// Kernighan–Lin-style refinement pass, plus medoid extraction for replica
// sites.
package partition

import (
	"fmt"
	"math"
	"sort"

	"edgerep/internal/graph"
)

// Partitioning maps each node to a part in [0,k).
type Partitioning struct {
	K     int
	Parts map[graph.NodeID]int
}

// Members returns the nodes of part i in ascending order.
func (p *Partitioning) Members(i int) []graph.NodeID {
	var out []graph.NodeID
	for v, part := range p.Parts {
		if part == i {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Sizes returns the size of every part.
func (p *Partitioning) Sizes() []int {
	s := make([]int, p.K)
	for _, part := range p.Parts {
		s[part]++
	}
	return s
}

// KWay partitions the given nodes into k parts using distances from dm.
// Seeds are chosen by a farthest-point sweep (the first seed is the node
// with minimum eccentricity, each further seed maximizes its distance to the
// chosen set); every remaining node joins its nearest seed; a bounded number
// of KL-style single-node moves then reduces intra-part cost while keeping
// every part non-empty.
func KWay(nodes []graph.NodeID, k int, dm *graph.DistanceMatrix) (*Partitioning, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k = %d, need ≥ 1", k)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("partition: no nodes")
	}
	if k > len(nodes) {
		k = len(nodes) // cannot have more non-empty parts than nodes
	}

	seeds := pickSeeds(nodes, k, dm)
	part := make(map[graph.NodeID]int, len(nodes))
	for i, s := range seeds {
		part[s] = i
	}
	for _, v := range nodes {
		if _, isSeed := part[v]; isSeed {
			continue
		}
		best, bestD := 0, math.Inf(1)
		for i, s := range seeds {
			if d := dm.Between(v, s); d < bestD {
				best, bestD = i, d
			}
		}
		part[v] = best
	}

	p := &Partitioning{K: k, Parts: part}
	refine(p, nodes, dm)
	return p, nil
}

// pickSeeds returns k spread-out seeds.
func pickSeeds(nodes []graph.NodeID, k int, dm *graph.DistanceMatrix) []graph.NodeID {
	// First seed: minimum eccentricity within the node set (a center).
	first, bestEcc := nodes[0], math.Inf(1)
	for _, u := range nodes {
		ecc := 0.0
		for _, v := range nodes {
			if d := dm.Between(u, v); d > ecc && !math.IsInf(d, 1) {
				ecc = d
			}
		}
		if ecc < bestEcc {
			first, bestEcc = u, ecc
		}
	}
	seeds := []graph.NodeID{first}
	for len(seeds) < k {
		var far graph.NodeID = -1
		farD := -1.0
		for _, v := range nodes {
			already := false
			for _, s := range seeds {
				if s == v {
					already = true
					break
				}
			}
			if already {
				continue
			}
			// Distance to the seed set = min over seeds.
			dmin := math.Inf(1)
			for _, s := range seeds {
				if d := dm.Between(v, s); d < dmin {
					dmin = d
				}
			}
			if dmin > farD {
				far, farD = v, dmin
			}
		}
		if far == -1 {
			break
		}
		seeds = append(seeds, far)
	}
	return seeds
}

// refine performs single-node moves that reduce intra-part cost, bounded to
// a fixed number of sweeps for predictable runtime.
func refine(p *Partitioning, nodes []graph.NodeID, dm *graph.DistanceMatrix) {
	const sweeps = 4
	sizes := p.Sizes()
	for s := 0; s < sweeps; s++ {
		improved := false
		for _, v := range nodes {
			cur := p.Parts[v]
			if sizes[cur] <= 1 {
				continue // keep every part non-empty
			}
			curCost := attachCost(v, cur, p, dm)
			bestPart, bestCost := cur, curCost
			for cand := 0; cand < p.K; cand++ {
				if cand == cur {
					continue
				}
				if c := attachCost(v, cand, p, dm); c < bestCost {
					bestPart, bestCost = cand, c
				}
			}
			if bestPart != cur {
				p.Parts[v] = bestPart
				sizes[cur]--
				sizes[bestPart]++
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}

// attachCost is the sum of distances from v to the members of part i
// (excluding v itself): the marginal intra-part cost of placing v there.
func attachCost(v graph.NodeID, i int, p *Partitioning, dm *graph.DistanceMatrix) float64 {
	c := 0.0
	for u, part := range p.Parts {
		if part == i && u != v {
			c += dm.Between(v, u)
		}
	}
	return c
}
