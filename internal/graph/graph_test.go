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
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
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

func TestAddNode(t *testing.T) {
	g := New(2)
	id := g.AddNode()
	if id != 2 {
		t.Fatalf("AddNode returned %d, want 2", id)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
}

func TestAddEdgeAndLookups(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(1, 2, 1.0)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge 0-1 not visible from both sides")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge 0-2")
	}
	w, ok := g.EdgeWeight(1, 2)
	if !ok || w != 1.0 {
		t.Fatalf("EdgeWeight(1,2) = %v,%v want 1.0,true", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 2); ok {
		t.Fatal("EdgeWeight found a non-existent edge")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestEdgeWeightParallelEdgesKeepsMinimum(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 1, 3)
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 3 {
		t.Fatalf("EdgeWeight = %v,%v want 3,true", w, ok)
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

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(1, 2, 1)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating clone affected original")
	}
	if !c.HasEdge(0, 1) {
		t.Fatal("clone lost an edge")
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
	sp := g.Dijkstra(0)
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
	sp := g.Dijkstra(0)
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
	sp := g.Dijkstra(0)
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
	sp := g.Dijkstra(0)
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

// Property: Dijkstra distance equals the weight sum along the returned path.
func TestDijkstraPathWeightMatchesDistanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(5+rng.Intn(25), 0.25, rng)
		src := NodeID(rng.Intn(g.NumNodes()))
		sp := g.Dijkstra(src)
		for v := 0; v < g.NumNodes(); v++ {
			path := sp.PathTo(NodeID(v))
			if path == nil {
				return false // connected graph: everything reachable
			}
			sum := 0.0
			for i := 1; i < len(path); i++ {
				w, ok := g.EdgeWeight(path[i-1], path[i])
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
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	added := g.Connect(1.0)
	if added != 3 {
		t.Fatalf("Connect added %d edges, want 3", added)
	}
	if !g.Connected() {
		t.Fatal("graph still disconnected after Connect")
	}
	if g.Connect(1.0) != 0 {
		t.Fatal("Connect on connected graph added edges")
	}
}

func TestBFSOrder(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	order := g.BFSOrder(0)
	if len(order) != 4 {
		t.Fatalf("BFSOrder visited %d nodes, want 4 (node 4 unreachable)", len(order))
	}
	if order[0] != 0 {
		t.Fatalf("BFS did not start at source: %v", order)
	}
	pos := make(map[NodeID]int)
	for i, v := range order {
		pos[v] = i
	}
	if pos[3] < pos[1] {
		t.Fatalf("BFS order violates levels: %v", order)
	}
}

func TestMedoid(t *testing.T) {
	// Line 0-1-2-3-4, unit weights: medoid of all is node 2.
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	m := g.AllPairsShortestPaths()
	if got := m.Medoid([]NodeID{0, 1, 2, 3, 4}); got != 2 {
		t.Fatalf("Medoid = %d, want 2", got)
	}
	if got := m.Medoid([]NodeID{4}); got != 4 {
		t.Fatalf("Medoid singleton = %d, want 4", got)
	}
}

func TestMedoidEmptyPanics(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	m := g.AllPairsShortestPaths()
	defer func() {
		if recover() == nil {
			t.Fatal("Medoid(empty) did not panic")
		}
	}()
	m.Medoid(nil)
}

func TestEccentricity(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	m := g.AllPairsShortestPaths()
	if e := m.Eccentricity(0); e != 3 {
		t.Fatalf("Eccentricity(0) = %v, want 3", e)
	}
	if e := m.Eccentricity(1); e != 2 {
		t.Fatalf("Eccentricity(1) = %v, want 2", e)
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
		g.Dijkstra(0)
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
