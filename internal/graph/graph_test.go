package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v, rng.Float64()*10)
			}
		}
	}
	return g
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if got := g.EdgeWeight(1, 0); got != 2.5 {
		t.Fatalf("EdgeWeight = %v", got)
	}
	// Re-adding keeps lighter weight.
	g.AddEdge(0, 1, 5)
	if got := g.EdgeWeight(0, 1); got != 2.5 {
		t.Fatalf("heavier re-add changed weight to %v", got)
	}
	g.AddEdge(1, 0, 1)
	if got := g.EdgeWeight(0, 1); got != 1 {
		t.Fatalf("lighter re-add did not update: %v", got)
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned false for present edge")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned true for absent edge")
	}
	if !math.IsInf(g.EdgeWeight(0, 1), 1) {
		t.Fatal("absent edge weight not +Inf")
	}
	if g.M() != 0 {
		t.Fatalf("M = %d after removal", g.M())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-loop did not panic")
		}
	}()
	New(3).AddEdge(1, 1, 1)
}

func TestNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative weight did not panic")
		}
	}()
	New(3).AddEdge(0, 1, -1)
}

func TestDijkstraPath(t *testing.T) {
	// 0 -1- 1 -1- 2, plus direct 0-2 with weight 5: path wins.
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	d := g.Dijkstra(0)
	if d[2] != 2 {
		t.Fatalf("d(0,2) = %v, want 2", d[2])
	}
	if d[0] != 0 {
		t.Fatalf("d(0,0) = %v", d[0])
	}
}

func TestDijkstraDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	d := g.Dijkstra(0)
	if !math.IsInf(d[2], 1) || !math.IsInf(d[3], 1) {
		t.Fatal("unreachable vertices must be +Inf")
	}
}

func TestDijkstraSkipsInfEdges(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, math.Inf(1))
	g.AddEdge(1, 2, 1)
	d := g.Dijkstra(0)
	if !math.IsInf(d[1], 1) || !math.IsInf(d[2], 1) {
		t.Fatal("+Inf edges must not provide connectivity")
	}
}

func TestDijkstraZeroWeights(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	d := g.Dijkstra(0)
	if d[2] != 0 {
		t.Fatalf("zero-weight path distance = %v", d[2])
	}
}

// TestDijkstraMatchesFloydWarshall is the core shortest-path property
// test: two independent implementations must agree on random graphs.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.3)
		want := g.FloydWarshall()
		got := g.APSP()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := got[i][j], want[i][j]
				if math.IsInf(a, 1) != math.IsInf(b, 1) {
					return false
				}
				if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAPSPSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 25, 0.4)
	d := g.APSP()
	for i := range d {
		for j := range d {
			if math.Abs(d[i][j]-d[j][i]) > 1e-9 {
				t.Fatalf("APSP asymmetric at (%d,%d): %v vs %v", i, j, d[i][j], d[j][i])
			}
		}
	}
}

// TestAPSPAvoidingMatchesDeletion cross-checks vertex-avoiding APSP against
// explicitly deleting the vertex's incident edges, and checks that row
// and column `avoid` are +Inf. Trial -1 is the path 0-1-2 avoiding its
// middle vertex, which disconnects 0 from 2.
func TestAPSPAvoidingMatchesDeletion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := -1; trial < 20; trial++ {
		n, g, avoid := 3, New(3), 1
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		if trial >= 0 {
			n = 3 + rng.Intn(15)
			g = randomGraph(rng, n, 0.4)
			avoid = rng.Intn(n)
		}
		deleted := g.Clone()
		for v := 0; v < n; v++ {
			deleted.RemoveEdge(avoid, v)
		}
		want := deleted.APSP()
		got := g.APSPAvoiding(avoid)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == avoid || j == avoid {
					if !math.IsInf(got[i][j], 1) {
						t.Fatalf("trial %d avoid %d: (%d,%d) = %v, want +Inf", trial, avoid, i, j, got[i][j])
					}
					continue
				}
				a, b := got[i][j], want[i][j]
				if math.IsInf(a, 1) != math.IsInf(b, 1) || (!math.IsInf(a, 1) && math.Abs(a-b) > 1e-9) {
					t.Fatalf("trial %d avoid %d: (%d,%d) got %v want %v", trial, avoid, i, j, a, b)
				}
			}
		}
	}
}

func TestConnectivityAndTree(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	g.AddEdge(2, 3, 1)
	if !g.Connected() || !g.IsTree() {
		t.Error("path graph must be a connected tree")
	}
	g.AddEdge(0, 3, 1)
	if g.IsTree() {
		t.Error("cycle graph misclassified")
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	if got := g.Diameter(); got != 6 {
		t.Fatalf("Diameter = %v, want 6", got)
	}
	// The diameter is the largest eccentricity, max_v d(u,v).
	ecc := 0.0
	for _, d := range g.Dijkstra(1) {
		ecc = math.Max(ecc, d)
	}
	if ecc != 5 {
		t.Fatalf("eccentricity of 1 = %v, want 5", ecc)
	}
	disc := New(3)
	disc.AddEdge(0, 1, 1)
	if !math.IsInf(disc.Diameter(), 1) {
		t.Error("disconnected diameter must be +Inf")
	}
}

func TestSumDistances(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	// ordered pairs: (0,1)=1 (1,0)=1 (1,2)=1 (2,1)=1 (0,2)=2 (2,0)=2 => 8
	if got := g.SumDistances(); got != 8 {
		t.Fatalf("SumDistances = %v, want 8", got)
	}
}

func TestMSTPath(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(0, 3, 10)
	edges, w := g.MST()
	if len(edges) != 3 || w != 6 {
		t.Fatalf("MST = %v weight %v, want 3 edges weight 6", edges, w)
	}
}

// TestMSTLowerBoundsConnectedSubgraphs: the MST weight is a lower bound on
// the total weight of any connected spanning subgraph — the property the
// social-optimum lower bound relies on.
func TestMSTLowerBoundsConnectedSubgraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		// Complete random-weight graph so connectivity is easy.
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(u, v, 0.1+rng.Float64()*5)
			}
		}
		_, mstW := g.MST()
		// Random connected spanning subgraph: MST plus random extras.
		sub := New(n)
		mstEdges, _ := g.MST()
		for _, e := range mstEdges {
			sub.AddEdge(e.U, e.V, e.W)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					sub.AddEdge(u, v, g.EdgeWeight(u, v))
				}
			}
		}
		return totalWeight(sub) >= mstW-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// totalWeight sums g's edge weights in Edges order.
func totalWeight(g *Graph) float64 {
	total := 0.0
	for _, e := range g.Edges() {
		total += e.W
	}
	return total
}

func TestMSTForest(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 2)
	edges, w := g.MST()
	if len(edges) != 2 || w != 3 {
		t.Fatalf("forest MST = %v weight %v", edges, w)
	}
}

// TestMSTForestNoPerComponentAllocation: a spanning forest of k
// components allocates O(1) objects, not a fresh n-slot heap per
// component (k·n slots on an edgeless graph).
func TestMSTForestNoPerComponentAllocation(t *testing.T) {
	g := New(1000)
	allocs := testing.AllocsPerRun(5, func() { g.MST() })
	if allocs > 8 {
		t.Fatalf("MST of an edgeless 1000-vertex graph allocated %v objects per run, want O(1)", allocs)
	}
}

func TestCloneDeep(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(1, 2, 1)
	if g.HasEdge(1, 2) {
		t.Error("Clone shares adjacency")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 12, 0.5)
	h := FromEdges(12, g.Edges())
	for u := 0; u < 12; u++ {
		for v := 0; v < 12; v++ {
			if g.HasEdge(u, v) != h.HasEdge(u, v) {
				t.Fatalf("edge set mismatch at (%d,%d)", u, v)
			}
		}
	}
}
