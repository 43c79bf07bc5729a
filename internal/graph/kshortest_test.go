package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the classic two-path graph:
//
//	0 -1- 1 -1- 3      (weight 2)
//	0 -2- 2 -2- 3      (weight 4)
func diamond() *Graph {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	return g
}

func TestKShortestDiamond(t *testing.T) {
	g := diamond()
	paths, err := g.KShortestPaths(0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want exactly 2", len(paths))
	}
	if paths[0].Weight != 2 || paths[1].Weight != 4 {
		t.Fatalf("weights %v %v, want 2 and 4", paths[0].Weight, paths[1].Weight)
	}
	if !equalPath(paths[0].Nodes, []NodeID{0, 1, 3}) {
		t.Fatalf("first path %v", paths[0].Nodes)
	}
	if !equalPath(paths[1].Nodes, []NodeID{0, 2, 3}) {
		t.Fatalf("second path %v", paths[1].Nodes)
	}
}

func TestKShortestKnownExample(t *testing.T) {
	// Classic Yen example: C→H with three alternative routes.
	// Nodes: 0=C 1=D 2=E 3=F 4=G 5=H
	g := New(6)
	g.AddEdge(0, 1, 3) // C-D
	g.AddEdge(0, 2, 2) // C-E
	g.AddEdge(1, 3, 4) // D-F
	g.AddEdge(2, 1, 1) // E-D
	g.AddEdge(2, 3, 2) // E-F
	g.AddEdge(2, 4, 3) // E-G
	g.AddEdge(3, 4, 2) // F-G
	g.AddEdge(3, 5, 1) // F-H
	g.AddEdge(4, 5, 2) // G-H
	paths, err := g.KShortestPaths(0, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	if paths[0].Weight != 5 { // C-E-F-H
		t.Fatalf("P1 weight %v, want 5", paths[0].Weight)
	}
	// In the undirected reading two weight-7 paths exist (C-E-G-H and
	// C-E-D-F-H among others); just require ordering and looplessness.
	for i := 1; i < len(paths); i++ {
		if paths[i].Weight < paths[i-1].Weight {
			t.Fatalf("paths out of order: %v", paths)
		}
	}
}

func TestKShortestLooplessAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(25, 0.2, rng)
	paths, err := g.KShortestPaths(0, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths in connected graph")
	}
	seen := map[string]bool{}
	for _, p := range paths {
		// Endpoints.
		if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 24 {
			t.Fatalf("path endpoints wrong: %v", p.Nodes)
		}
		// Loopless.
		visited := map[NodeID]bool{}
		for _, v := range p.Nodes {
			if visited[v] {
				t.Fatalf("loop in path %v", p.Nodes)
			}
			visited[v] = true
		}
		// Edges exist, weight adds up.
		sum := 0.0
		key := ""
		for i := 1; i < len(p.Nodes); i++ {
			w, ok := g.EdgeWeight(p.Nodes[i-1], p.Nodes[i])
			if !ok {
				t.Fatalf("path uses missing edge: %v", p.Nodes)
			}
			sum += w
		}
		for _, v := range p.Nodes {
			key += string(rune(v)) + ","
		}
		if seen[key] {
			t.Fatalf("duplicate path %v", p.Nodes)
		}
		seen[key] = true
		if math.Abs(sum-p.Weight) > 1e-9 {
			t.Fatalf("path weight %v, edges sum %v", p.Weight, sum)
		}
	}
	// Non-decreasing weights; first = Dijkstra distance.
	sp := g.dijkstra(0)
	if math.Abs(paths[0].Weight-sp.Dist[24]) > 1e-9 {
		t.Fatalf("first path weight %v != shortest distance %v", paths[0].Weight, sp.Dist[24])
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Weight < paths[i-1].Weight-1e-9 {
			t.Fatal("weights decrease")
		}
	}
}

func TestKShortestUnreachableAndErrors(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	paths, err := g.KShortestPaths(0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if paths != nil {
		t.Fatalf("unreachable dst returned %v", paths)
	}
	if _, err := g.KShortestPaths(0, 1, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestKShortestSingleNodePath(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	paths, err := g.KShortestPaths(0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0].Nodes) != 1 || paths[0].Weight != 0 {
		t.Fatalf("self path = %v", paths)
	}
}

// Property: k=1 always equals Dijkstra.
func TestKShortestMatchesDijkstraProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(5+rng.Intn(15), 0.3, rng)
		src := NodeID(rng.Intn(g.NumNodes()))
		dst := NodeID(rng.Intn(g.NumNodes()))
		paths, err := g.KShortestPaths(src, dst, 1)
		if err != nil || len(paths) != 1 {
			return false
		}
		sp := g.dijkstra(src)
		return math.Abs(paths[0].Weight-sp.Dist[dst]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKShortest(b *testing.B) {
	g := randomConnected(60, 0.15, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.KShortestPaths(0, 59, 4); err != nil {
			b.Fatal(err)
		}
	}
}
