// Package routing makes the paths of intermediate-result transfers explicit.
// The placement model (internal/placement) only needs shortest-path
// *distances*; this package reconstructs the actual shortest *paths* over
// the two-tier edge cloud, charges transferred volume to every link on the
// path, and reports per-link loads — the "network bottlenecks" the paper's
// introduction names as a core risk of centralised processing. Experiments
// use it to compare the network footprint of placements beyond the pure
// delay objective.
package routing

import (
	"fmt"
	"math"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
)

// Link identifies an undirected link by its canonical endpoint order
// (From < To).
type Link struct {
	From, To graph.NodeID
}

// canonical returns the link with ordered endpoints.
func canonical(u, v graph.NodeID) Link {
	if u > v {
		u, v = v, u
	}
	return Link{From: u, To: v}
}

// Path is one routed shortest path.
type Path struct {
	Nodes []graph.NodeID
	// DelayPerGB is the summed link delay along the path.
	DelayPerGB float64
}

// Hops returns the number of links on the path.
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Router resolves shortest paths over a topology through the topology's
// shared graph.DistanceCache, so the Dijkstra trees that built the delay
// rows also serve path reconstruction — no per-router recomputation.
type Router struct {
	top   *topology.Topology
	cache *graph.DistanceCache
}

// NewRouter builds a Router for a topology.
func NewRouter(top *topology.Topology) *Router {
	return &Router{top: top, cache: top.DistanceCache()}
}

// Path returns the shortest path from src to dst. Paths from the same
// source share one memoized Dijkstra tree, so repeated lookups are cheap;
// trees are shared with every other consumer of the topology's distances.
func (r *Router) Path(src, dst graph.NodeID) (Path, error) {
	tree := r.cache.Shortest(src)
	nodes := tree.PathTo(dst)
	if nodes == nil {
		return Path{}, fmt.Errorf("routing: no path from %d to %d", src, dst)
	}
	return Path{Nodes: nodes, DelayPerGB: tree.Dist[dst]}, nil
}

// LoadMap accumulates transferred volume per link.
type LoadMap map[Link]float64

// Charge adds vol GB to every link of the path.
func (lm LoadMap) Charge(p Path, vol float64) {
	for i := 1; i < len(p.Nodes); i++ {
		lm[canonical(p.Nodes[i-1], p.Nodes[i])] += vol
	}
}

// Max returns the most-loaded link and its load; zero-value link when empty.
func (lm LoadMap) Max() (Link, float64) {
	var bestLink Link
	best := 0.0
	// Deterministic scan order.
	links := make([]Link, 0, len(lm))
	for l := range lm {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	for _, l := range links {
		if lm[l] > best {
			bestLink, best = l, lm[l]
		}
	}
	return bestLink, best
}

// Footprint summarizes the network cost of a placement solution.
type Footprint struct {
	// TotalGBHops is Σ over transfers of volume × hops: the aggregate
	// traffic the placement injects into the WMAN.
	TotalGBHops float64
	// MaxLinkGB is the volume crossing the most-loaded link (the
	// bottleneck).
	MaxLinkGB float64
	// MaxLink is that link.
	MaxLink Link
	// ReplicationGBHops is the one-off traffic of copying replicas from
	// dataset origins to their placement sites.
	ReplicationGBHops float64
	// Loads is the full per-link load map of query transfers.
	Loads LoadMap
}

// MeasureFootprint routes every intermediate-result transfer of a solution
// (replica node → query home, volume α·|S_n|) and every replica copy
// (origin → replica node, volume |S_n|) and aggregates link loads.
func MeasureFootprint(p *placement.Problem, sol *placement.Solution, r *Router) (*Footprint, error) {
	fp := &Footprint{Loads: make(LoadMap)}
	for _, a := range sol.Assignments {
		d, ok := p.Demand(a.Query, a.Dataset)
		if !ok {
			return nil, fmt.Errorf("routing: assignment for non-demanded dataset %d of query %d", a.Dataset, a.Query)
		}
		path, err := r.Path(a.Node, p.Queries[a.Query].Home)
		if err != nil {
			return nil, err
		}
		vol := p.Datasets[a.Dataset].SizeGB * d.Selectivity
		fp.Loads.Charge(path, vol)
		fp.TotalGBHops += vol * float64(path.Hops())
	}
	for n, nodes := range sol.Replicas {
		origin := p.Datasets[n].Origin
		for _, v := range nodes {
			if v == origin {
				continue
			}
			path, err := r.Path(origin, v)
			if err != nil {
				return nil, err
			}
			fp.ReplicationGBHops += p.Datasets[n].SizeGB * float64(path.Hops())
		}
	}
	fp.MaxLink, fp.MaxLinkGB = fp.Loads.Max()
	return fp, nil
}

// VerifyPathsMatchDistances checks that every routed path's delay equals the
// delay the placement model reads for the same pair (the row towards dst) —
// the consistency invariant between this package and the model's delay
// terms.
func VerifyPathsMatchDistances(top *topology.Topology, r *Router) error {
	for _, u := range top.ComputeNodes {
		for _, v := range top.ComputeNodes {
			path, err := r.Path(u, v)
			if err != nil {
				return err
			}
			want := top.DelayTo(v)[u]
			if math.Abs(path.DelayPerGB-want) > 1e-9 {
				return fmt.Errorf("routing: path delay %v != model delay %v for %d→%d",
					path.DelayPerGB, want, u, v)
			}
		}
	}
	return nil
}
