package constructions

import (
	"math"
	"testing"

	"gncg/internal/bestresponse"
	"gncg/internal/metric"
	"gncg/internal/opt"
)

func TestThm20TriangleIsNonMetric(t *testing.T) {
	lb, err := Thm20Triangle(2)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Game.Host.IsMetric(1e-9) {
		t.Fatal("Thm 20 triangle must violate the triangle inequality")
	}
}

func TestThm20TriangleExactNE(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 2, 10} {
		lb, err := Thm20Triangle(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !bestresponse.IsNash(neState(t, lb)) {
			t.Fatalf("alpha %v: triangle NE candidate fails the exact check", alpha)
		}
	}
}

func TestThm20RatioAndOptimum(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 3, 8} {
		lb, err := Thm20Triangle(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if got := lb.Ratio(); math.Abs(got-(alpha+2)/2) > 1e-9 {
			t.Fatalf("alpha %v: ratio %v != (α+2)/2 = %v", alpha, got, (alpha+2)/2)
		}
		exact, err := opt.ExactSmall(lb.Game)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lb.OptimumCost()-exact.Cost) > 1e-9 {
			t.Fatalf("alpha %v: OPT candidate %v != exhaustive %v", alpha, lb.OptimumCost(), exact.Cost)
		}
	}
}

func TestThm20PairSigma(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 4} {
		lb, err := Thm20Triangle(alpha)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow((alpha+2)/2, 2)
		if got := Thm20PairSigma(lb); math.Abs(got-want) > 1e-9 {
			t.Fatalf("alpha %v: pair sigma %v != ((α+2)/2)² = %v", alpha, got, want)
		}
	}
}

func TestFig8GameShape(t *testing.T) {
	g := Fig8Game(1)
	if g.N() != 10 {
		t.Fatalf("Fig 8 game has %d agents, want 10", g.N())
	}
	// Spot-check two published 1-norm distances: |a0-a1| = |3-0|+|0-3| = 6,
	// |a4-a9| = |1-1|+|1-0| = 1.
	if got := g.Host.Weight(0, 1); got != 6 {
		t.Fatalf("w(a0,a1) = %v, want 6", got)
	}
	if got := g.Host.Weight(4, 9); got != 1 {
		t.Fatalf("w(a4,a9) = %v, want 1", got)
	}
	// The host must be metric (it is a 1-norm point set). Structural and
	// dense answers must agree.
	if !g.Host.IsMetric(1e-9) {
		t.Fatal("Fig 8 host not metric")
	}
	if !metric.IsMetric(g.Host.Densify(), 1e-9) {
		t.Fatal("Fig 8 host dense view not metric")
	}
}

// TestFig8InstancesIndependent: separate Fig8Game calls must not share
// host storage — their dense views are distinct allocations with equal
// content. (A previous version of this test mutated one host's matrix to
// probe for sharing, which the Densify() contract now forbids; see
// TestMatrixDensifyAliasing in internal/game.)
func TestFig8InstancesIndependent(t *testing.T) {
	m1 := Fig8Game(1).Host.Densify()
	m2 := Fig8Game(1).Host.Densify()
	if &m1[0][0] == &m2[0][0] {
		t.Fatal("Fig8Game instances share dense-view storage")
	}
	for i := range m1 {
		for j := range m1[i] {
			if m1[i][j] != m2[i][j] {
				t.Fatalf("Fig8Game instances disagree at w(%d,%d)", i, j)
			}
		}
	}
}
