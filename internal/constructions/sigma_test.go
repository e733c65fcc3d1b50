package constructions_test

import (
	"math"
	"testing"

	"gncg/internal/constructions"
	"gncg/internal/game"
	"gncg/internal/poa"
)

// TestThm20PairSigma: the heavy pair (a,c) of the Thm 20 triangle witness
// has contribution ratio σ exactly ((α+2)/2)², and no pair has more.
func TestThm20PairSigma(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 4} {
		lb, err := constructions.Thm20Triangle(alpha)
		if err != nil {
			t.Fatal(err)
		}
		s := game.NewState(lb.Game, lb.Equilibrium.Clone())
		worst := poa.SigmaMax(s, lb.Optimum)
		want := math.Pow((alpha+2)/2, 2)
		if worst.U != 0 || worst.V != 2 || math.Abs(worst.Sigma-want) > 1e-9 {
			t.Fatalf("alpha %v: pair (%d,%d) sigma %v, want ((α+2)/2)² = %v at (0,2)",
				alpha, worst.U, worst.V, worst.Sigma, want)
		}
	}
}
