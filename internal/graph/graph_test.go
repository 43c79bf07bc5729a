package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph reports %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if comps := g.Components(); len(comps) != 0 {
		t.Fatalf("empty graph has components %v", comps)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeAndLookups(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(1, 2, 1.0)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if _, ok := edgeWeight(g, 0, 1); !ok {
		t.Fatal("edge 0-1 not visible from node 0")
	}
	if _, ok := edgeWeight(g, 1, 0); !ok {
		t.Fatal("edge 0-1 not visible from node 1")
	}
	w, ok := edgeWeight(g, 1, 2)
	if !ok || w != 1.0 {
		t.Fatalf("edgeWeight(1,2) = %v,%v want 1.0,true", w, ok)
	}
	if _, ok := edgeWeight(g, 0, 2); ok {
		t.Fatal("edgeWeight found a non-existent edge")
	}
	deg := 0
	g.Neighbors(1, func(NodeID, float64) { deg++ })
	if deg != 2 {
		t.Fatalf("node 1 has %d neighbors, want 2", deg)
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Graph)
	}{
		{"self-loop", func(g *Graph) { g.AddEdge(1, 1, 1) }},
		{"negative-weight", func(g *Graph) { g.AddEdge(0, 1, -1) }},
		{"nan-weight", func(g *Graph) { g.AddEdge(0, 1, math.NaN()) }},
		{"out-of-range", func(g *Graph) { g.AddEdge(0, 9, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn(New(3))
		})
	}
}

func TestEdgesSortedCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(0, 1, 1)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges returned %d entries, want 3", len(es))
	}
	for i, e := range es {
		if e.From >= e.To {
			t.Fatalf("edge %d not canonical: %+v", i, e)
		}
		if i > 0 && (es[i-1].From > e.From || (es[i-1].From == e.From && es[i-1].To > e.To)) {
			t.Fatalf("edges not sorted at %d: %+v after %+v", i, e, es[i-1])
		}
	}
}

func TestNeighborsDeterministic(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 3, 3)
	var got []NodeID
	g.Neighbors(0, func(v NodeID, w float64) { got = append(got, v) })
	want := []NodeID{2, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors order = %v, want %v", got, want)
		}
	}
}

func TestDijkstraLine(t *testing.T) {
	// 0 -1- 1 -2- 2 -3- 3
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	sp := g.dijkstra(0)
	want := []float64{0, 1, 3, 6}
	for i, w := range want {
		if sp.Dist[i] != w {
			t.Fatalf("Dist[%d] = %v, want %v", i, sp.Dist[i], w)
		}
	}
	path := sp.PathTo(3)
	wantPath := []NodeID{0, 1, 2, 3}
	if len(path) != len(wantPath) {
		t.Fatalf("path = %v, want %v", path, wantPath)
	}
	for i := range path {
		if path[i] != wantPath[i] {
			t.Fatalf("path = %v, want %v", path, wantPath)
		}
	}
}

func TestDijkstraPrefersCheaperLongerPath(t *testing.T) {
	// Direct 0-2 costs 10; via 1 costs 3.
	g := New(3)
	g.AddEdge(0, 2, 10)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	sp := g.dijkstra(0)
	if sp.Dist[2] != 3 {
		t.Fatalf("Dist[2] = %v, want 3", sp.Dist[2])
	}
	if p := sp.PathTo(2); len(p) != 3 || p[1] != 1 {
		t.Fatalf("path = %v, want through node 1", p)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	sp := g.dijkstra(0)
	if !math.IsInf(sp.Dist[2], 1) {
		t.Fatalf("Dist[2] = %v, want +Inf", sp.Dist[2])
	}
	if p := sp.PathTo(2); p != nil {
		t.Fatalf("PathTo(unreachable) = %v, want nil", p)
	}
}

func TestPathToSelf(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	sp := g.dijkstra(0)
	p := sp.PathTo(0)
	if len(p) != 1 || p[0] != 0 {
		t.Fatalf("PathTo(self) = %v, want [0]", p)
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	g := randomConnected(30, 0.2, rand.New(rand.NewSource(7)))
	m := g.AllPairsShortestPaths()
	for u := 0; u < g.NumNodes(); u++ {
		if m.Between(NodeID(u), NodeID(u)) != 0 {
			t.Fatalf("Between(%d,%d) != 0", u, u)
		}
		for v := 0; v < g.NumNodes(); v++ {
			duv := m.Between(NodeID(u), NodeID(v))
			dvu := m.Between(NodeID(v), NodeID(u))
			if math.Abs(duv-dvu) > 1e-9 {
				t.Fatalf("asymmetric distance %d,%d: %v vs %v", u, v, duv, dvu)
			}
		}
	}
}

// Property: all-pairs distances satisfy the triangle inequality.
func TestAllPairsTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(4+rng.Intn(20), 0.3, rng)
		m := g.AllPairsShortestPaths()
		n := g.NumNodes()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					ab := m.Between(NodeID(a), NodeID(b))
					bc := m.Between(NodeID(b), NodeID(c))
					ac := m.Between(NodeID(a), NodeID(c))
					if ac > ab+bc+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// edgeWeight returns the weight of the lightest edge between u and v, and
// whether there is one, from u's adjacency.
func edgeWeight(g *Graph, u, v NodeID) (float64, bool) {
	best, found := math.Inf(1), false
	g.Neighbors(u, func(w NodeID, wt float64) {
		if w == v && wt < best {
			best, found = wt, true
		}
	})
	return best, found
}

// Property: Dijkstra distance equals the weight sum along the returned path.
func TestDijkstraPathWeightMatchesDistanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(5+rng.Intn(25), 0.25, rng)
		src := NodeID(rng.Intn(g.NumNodes()))
		sp := g.dijkstra(src)
		for v := 0; v < g.NumNodes(); v++ {
			path := sp.PathTo(NodeID(v))
			if path == nil {
				return false // connected graph: everything reachable
			}
			sum := 0.0
			for i := 1; i < len(path); i++ {
				w, ok := edgeWeight(g, path[i-1], path[i])
				if !ok {
					return false
				}
				sum += w
			}
			if math.Abs(sum-sp.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsAndConnect(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	// node 4, 5 isolated
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("Components = %d, want 4", len(comps))
	}
	added := g.Connect(1.0)
	if added != 3 {
		t.Fatalf("Connect added %d edges, want 3", added)
	}
	if comps := g.Components(); len(comps) != 1 {
		t.Fatalf("graph has %d components after Connect, want 1", len(comps))
	}
	if g.Connect(1.0) != 0 {
		t.Fatal("Connect on connected graph added edges")
	}
}

// randomConnected builds a random graph with edge probability p and repairs
// connectivity, mirroring how the topology package uses this substrate.
func randomConnected(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(NodeID(u), NodeID(v), 0.1+rng.Float64())
			}
		}
	}
	g.Connect(1.0)
	return g
}

func BenchmarkDijkstra200(b *testing.B) {
	g := randomConnected(200, 0.2, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.dijkstra(0)
	}
}

func BenchmarkMatrix100(b *testing.B) {
	g := randomConnected(100, 0.2, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDistanceCache(g).Matrix()
	}
}
