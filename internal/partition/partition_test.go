package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"edgerep/internal/graph"
)

// Cost is the total intra-part distance: Σ over parts of Σ pairwise member
// distances. Lower is better; refinement minimizes this objective.
func (p *Partitioning) Cost(dm *graph.DistanceMatrix) float64 {
	total := 0.0
	for i := 0; i < p.K; i++ {
		m := p.Members(i)
		for a := 0; a < len(m); a++ {
			for b := a + 1; b < len(m); b++ {
				total += dm.Between(m[a], m[b])
			}
		}
	}
	return total
}

func lineGraph(n int) (*graph.Graph, []graph.NodeID) {
	g := graph.New(n)
	nodes := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		nodes[i] = graph.NodeID(i)
		if i > 0 {
			g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1)
		}
	}
	return g, nodes
}

func randomGraph(n int, seed int64) (*graph.Graph, []graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.25 {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+rng.Float64())
			}
		}
	}
	g.Connect(1)
	return g, nodes
}

func TestKWayBasicInvariants(t *testing.T) {
	g, nodes := randomGraph(40, 3)
	dm := graph.NewDistanceCache(g).Matrix()
	for _, k := range []int{1, 2, 3, 5, 8} {
		p, err := KWay(nodes, k, dm)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.K != k {
			t.Fatalf("k=%d: partitioning has K=%d", k, p.K)
		}
		if len(p.Parts) != len(nodes) {
			t.Fatalf("k=%d: %d of %d nodes assigned", k, len(p.Parts), len(nodes))
		}
		for i, s := range p.Sizes() {
			if s == 0 {
				t.Fatalf("k=%d: part %d empty", k, i)
			}
		}
	}
}

func TestKWayErrors(t *testing.T) {
	g, nodes := lineGraph(5)
	dm := graph.NewDistanceCache(g).Matrix()
	if _, err := KWay(nodes, 0, dm); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KWay(nil, 2, dm); err == nil {
		t.Fatal("empty node set accepted")
	}
}

func TestKWayMorePartsThanNodesClamps(t *testing.T) {
	g, nodes := lineGraph(3)
	dm := graph.NewDistanceCache(g).Matrix()
	p, err := KWay(nodes, 10, dm)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 3 {
		t.Fatalf("K = %d, want clamp to 3", p.K)
	}
}

func TestKWaySinglePartContainsAll(t *testing.T) {
	g, nodes := lineGraph(7)
	dm := graph.NewDistanceCache(g).Matrix()
	p, err := KWay(nodes, 1, dm)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Members(0)); got != 7 {
		t.Fatalf("single part holds %d of 7 nodes", got)
	}
}

func TestKWayLineSplitsContiguously(t *testing.T) {
	// On a line with k=2 the optimal split is contiguous halves; the
	// refinement should find a contiguous split (each part's members form
	// an interval).
	g, nodes := lineGraph(10)
	dm := graph.NewDistanceCache(g).Matrix()
	p, err := KWay(nodes, 2, dm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m := p.Members(i)
		for j := 1; j < len(m); j++ {
			if m[j] != m[j-1]+1 {
				t.Fatalf("part %d not contiguous on a line: %v", i, m)
			}
		}
	}
}

func TestRefinementNeverIncreasesCost(t *testing.T) {
	g, nodes := randomGraph(30, 9)
	dm := graph.NewDistanceCache(g).Matrix()
	// Build the unrefined assignment by reproducing seeding + nearest-seed.
	seeds := pickSeeds(nodes, 4, dm)
	parts := make(map[graph.NodeID]int)
	for i, s := range seeds {
		parts[s] = i
	}
	for _, v := range nodes {
		if _, ok := parts[v]; ok {
			continue
		}
		best, bestD := 0, dm.Between(v, seeds[0])
		for i, s := range seeds[1:] {
			if d := dm.Between(v, s); d < bestD {
				best, bestD = i+1, d
			}
		}
		parts[v] = best
	}
	raw := &Partitioning{K: 4, Parts: parts}
	before := raw.Cost(dm)
	refined, err := KWay(nodes, 4, dm)
	if err != nil {
		t.Fatal(err)
	}
	if after := refined.Cost(dm); after > before+1e-9 {
		t.Fatalf("refinement increased cost: %v -> %v", before, after)
	}
}

// Property: every node lands in exactly one part and part count is within
// [1, min(k, n)] for arbitrary sizes.
func TestKWayCoverageProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := 2 + int(nRaw)%40
		k := 1 + int(kRaw)%10
		g, nodes := randomGraph(n, seed)
		dm := graph.NewDistanceCache(g).Matrix()
		p, err := KWay(nodes, k, dm)
		if err != nil {
			return false
		}
		if len(p.Parts) != n {
			return false
		}
		for _, part := range p.Parts {
			if part < 0 || part >= p.K {
				return false
			}
		}
		for _, s := range p.Sizes() {
			if s == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKWay100(b *testing.B) {
	g, nodes := randomGraph(100, 1)
	dm := graph.NewDistanceCache(g).Matrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KWay(nodes, 5, dm); err != nil {
			b.Fatal(err)
		}
	}
}
