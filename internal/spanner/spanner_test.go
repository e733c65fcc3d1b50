package spanner

import (
	"math"
	"math/rand"
	"testing"

	"gncg/internal/bestresponse"
	"gncg/internal/game"
	"gncg/internal/graph"
	"gncg/internal/metric"
)

func onetwoHost(t *testing.T, n int, ones [][2]int) *game.Host {
	t.Helper()
	ot, err := metric.NewOneTwo(n, ones)
	if err != nil {
		t.Fatal(err)
	}
	return game.NewHost(ot)
}

func TestIsKSpannerBasics(t *testing.T) {
	h := game.NewHost(metric.Unit{N: 4})
	star := graph.New(4)
	for v := 1; v < 4; v++ {
		star.AddEdge(0, v, 1)
	}
	if !IsKSpanner(star, h, 2, 1e-9) {
		t.Fatal("unit star is a 2-spanner")
	}
	if IsKSpanner(star, h, 1.5, 1e-9) {
		t.Fatal("unit star is not a 1.5-spanner")
	}
	if got := Stretch(star, h); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Stretch = %v, want 2", got)
	}
}

func TestStretchDisconnected(t *testing.T) {
	h := game.NewHost(metric.Unit{N: 3})
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	if got := Stretch(g, h); !math.IsInf(got, 1) {
		t.Fatalf("disconnected stretch = %v, want +Inf", got)
	}
}

func TestMinWeightSpannerKeepsOneEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(5)
		var ones [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.35 {
					ones = append(ones, [2]int{u, v})
				}
			}
		}
		h := onetwoHost(t, n, ones)
		edges, err := MinWeight32SpannerOneTwo(h)
		if err != nil {
			t.Fatal(err)
		}
		net := graph.FromEdges(n, edges)
		for _, e := range ones {
			if !net.HasEdge(e[0], e[1]) {
				t.Fatal("spanner dropped a 1-edge (violates Lemma 5)")
			}
		}
		if !IsKSpanner(net, h, 1.5, 1e-9) {
			t.Fatal("result is not a 3/2-spanner")
		}
		// Lemma 5's second claim: minimum-weight 3/2-spanners of 1-2
		// hosts have diameter at most 3.
		if d := net.Diameter(); d > 3 {
			t.Fatalf("min 3/2-spanner has diameter %v > 3 (Lemma 5)", d)
		}
	}
}

// totalWeight sums g's edge weights.
func totalWeight(g *graph.Graph) float64 {
	total := 0.0
	for _, e := range g.Edges() {
		total += e.W
	}
	return total
}

func TestMinWeightSpannerIsMinimal(t *testing.T) {
	// Host: 4 nodes, single 1-edge (0,1). All other pairs are 2-edges and
	// any single 2-edge already satisfies d <= 3 through... verify against
	// exhaustive minimal solution by weight comparison.
	h := onetwoHost(t, 4, [][2]int{{0, 1}})
	edges, err := MinWeight32SpannerOneTwo(h)
	if err != nil {
		t.Fatal(err)
	}
	got := graph.FromEdges(4, edges)
	// Exhaustive: iterate all subsets of the five 2-edges.
	twos := [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	bestW := math.Inf(1)
	for mask := 0; mask < 1<<len(twos); mask++ {
		g := graph.New(4)
		g.AddEdge(0, 1, 1)
		for i, p := range twos {
			if mask&(1<<i) != 0 {
				g.AddEdge(p[0], p[1], 2)
			}
		}
		if IsKSpanner(g, h, 1.5, 1e-9) && totalWeight(g) < bestW {
			bestW = totalWeight(g)
		}
	}
	if math.Abs(totalWeight(got)-bestW) > 1e-9 {
		t.Fatalf("spanner weight %v, exhaustive minimum %v", totalWeight(got), bestW)
	}
}

// TestThm5SpannerAdmitsNEOwnership: the paper's NE existence for the
// 1-2–GNCG with 1/2 <= alpha <= 1 — a minimum-weight 3/2-spanner has an
// ownership assignment that is a Nash equilibrium.
func TestThm5SpannerAdmitsNEOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		n := 4 + rng.Intn(2)
		var ones [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					ones = append(ones, [2]int{u, v})
				}
			}
		}
		h := onetwoHost(t, n, ones)
		edges, err := MinWeight32SpannerOneTwo(h)
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) > 14 {
			continue // keep the orientation search small
		}
		alpha := 0.5 + rng.Float64()*0.5
		g := game.New(h, alpha)
		_, ok := FindNEOwnership(g, edges, bestresponse.IsNash)
		if !ok {
			t.Fatalf("trial %d (n=%d, alpha=%v): no NE ownership for min-weight 3/2-spanner", trial, n, alpha)
		}
	}
}

func TestFindNEOwnershipNegative(t *testing.T) {
	// A unit triangle at alpha=10: the triangle is wasteful, so no
	// orientation of ALL three edges is an NE (deleting always helps).
	h := game.NewHost(metric.Unit{N: 3})
	g := game.New(h, 10)
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1}}
	if _, ok := FindNEOwnership(g, edges, bestresponse.IsNash); ok {
		t.Fatal("triangle at alpha=10 should admit no NE ownership")
	}
}
