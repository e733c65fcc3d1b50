package constructions

import (
	"math"
	"testing"

	"gncg/internal/bestresponse"
	"gncg/internal/game"
	"gncg/internal/opt"
)

func neState(t *testing.T, lb *LowerBound) *game.State {
	t.Helper()
	return game.NewState(lb.Game, lb.Equilibrium.Clone())
}

func TestThm15StarExactNESmall(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 2, 5} {
		lb, err := Thm15Star(6, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !bestresponse.IsNash(neState(t, lb)) {
			t.Fatalf("alpha %v: Thm 15 star is not an exact NE at n=6", alpha)
		}
	}
}

func TestThm15StarGreedyStableLarge(t *testing.T) {
	lb, err := Thm15Star(40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !neState(t, lb).IsGreedyEquilibrium() {
		t.Fatal("Thm 15 star fails the greedy equilibrium check at n=40")
	}
}

func TestThm15RatioMatchesClosedForm(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 2, 5} {
		for _, n := range []int{3, 6, 12, 25} {
			lb, err := Thm15Star(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if got := lb.Ratio(); math.Abs(got-lb.Predicted) > 1e-9 {
				t.Fatalf("n=%d alpha=%v: measured ratio %v != closed form %v", n, alpha, got, lb.Predicted)
			}
		}
	}
}

func TestThm15RatioApproachesAsymptote(t *testing.T) {
	alpha := 3.0
	limit := (alpha + 2) / 2
	small, _ := Thm15Star(5, alpha)
	large, _ := Thm15Star(200, alpha)
	dSmall := math.Abs(small.Ratio() - limit)
	dLarge := math.Abs(large.Ratio() - limit)
	if dLarge >= dSmall {
		t.Fatalf("ratio not converging to (alpha+2)/2: |%v-%v| vs |%v-%v|",
			small.Ratio(), limit, large.Ratio(), limit)
	}
	if dLarge > 0.05 {
		t.Fatalf("n=200 ratio %v still far from limit %v", large.Ratio(), limit)
	}
}

func TestThm15OptimumIsExactOPTSmall(t *testing.T) {
	lb, err := Thm15Star(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := opt.ExactSmall(lb.Game)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb.OptimumCost()-exact.Cost) > 1e-9 {
		t.Fatalf("tree star OPT candidate %v != exhaustive OPT %v", lb.OptimumCost(), exact.Cost)
	}
}

func TestThm19ExactNESmall(t *testing.T) {
	for _, d := range []int{1, 2} {
		for _, alpha := range []float64{0.5, 1, 4} {
			lb, err := Thm19CrossPolytope(d, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if !bestresponse.IsNash(neState(t, lb)) {
				t.Fatalf("d=%d alpha=%v: cross-polytope star not an exact NE", d, alpha)
			}
		}
	}
}

func TestThm19RatioMatchesClosedForm(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 10} {
		for _, alpha := range []float64{0.5, 1, 2, 8} {
			lb, err := Thm19CrossPolytope(d, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if got := lb.Ratio(); math.Abs(got-lb.Predicted) > 1e-9 {
				t.Fatalf("d=%d alpha=%v: ratio %v != 1+α/(2+α/(2d-1)) = %v", d, alpha, got, lb.Predicted)
			}
		}
	}
}

func TestThm19ApproachesTreeBound(t *testing.T) {
	// As d -> inf the cross-polytope bound approaches (α+2)/2.
	alpha := 4.0
	limit := (alpha + 2) / 2
	lo, _ := Thm19CrossPolytope(2, alpha)
	hi, _ := Thm19CrossPolytope(60, alpha)
	if !(math.Abs(hi.Predicted-limit) < math.Abs(lo.Predicted-limit)) {
		t.Fatal("cross-polytope bound not approaching (α+2)/2 with d")
	}
	if math.Abs(hi.Predicted-limit) > 0.05 {
		t.Fatalf("d=60 bound %v still far from %v", hi.Predicted, limit)
	}
}

func TestLemma8PathExactNE(t *testing.T) {
	for _, alpha := range []float64{0.7, 1, 3} {
		lb, err := Lemma8Path(5, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !bestresponse.IsNash(neState(t, lb)) {
			t.Fatalf("alpha %v: Lemma 8 star is not an exact NE", alpha)
		}
		if lb.Ratio() <= 1 {
			t.Fatalf("alpha %v: Lemma 8 ratio %v, want > 1", alpha, lb.Ratio())
		}
	}
}

func TestLemma8PathIsTrueOptimum(t *testing.T) {
	// The path candidate must be the exhaustive social optimum (Lemma 8
	// asserts it is optimal).
	for _, alpha := range []float64{0.7, 1, 3} {
		lb, err := Lemma8Path(5, alpha)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := opt.ExactSmall(lb.Game)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lb.OptimumCost()-exact.Cost) > 1e-6 {
			t.Fatalf("alpha %v: path cost %v != exhaustive OPT %v", alpha, lb.OptimumCost(), exact.Cost)
		}
	}
}

func TestThm18ClosedForm(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 2, 6, 20} {
		lb, err := Thm18FourPoint(alpha)
		if err != nil {
			t.Fatal(err)
		}
		measured := lb.Ratio()
		if math.Abs(measured-Thm18Ratio(alpha)) > 1e-9 {
			t.Fatalf("alpha %v: measured %v != closed form %v", alpha, measured, Thm18Ratio(alpha))
		}
		if !bestresponse.IsNash(neState(t, lb)) {
			t.Fatalf("alpha %v: four-point star not an exact NE", alpha)
		}
	}
}

func TestThm18RatioTendsTo3(t *testing.T) {
	// The paper notes the bound yields PoA >= 3 for high alpha.
	if got := Thm18Ratio(1e9); math.Abs(got-3) > 1e-6 {
		t.Fatalf("Thm18Ratio(1e9) = %v, want -> 3", got)
	}
	if got := Thm18Ratio(0.0001); math.Abs(got-1) > 1e-2 {
		t.Fatalf("Thm18Ratio(0.0001) = %v, want -> 1", got)
	}
}

func TestConstructionValidation(t *testing.T) {
	if _, err := Thm15Star(2, 1); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := Thm15Star(5, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Thm19CrossPolytope(0, 1); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := Lemma8Path(2, 1); err == nil {
		t.Error("m=2 accepted")
	}
}
