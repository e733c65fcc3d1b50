package poa

import (
	"math"
	"testing"

	"gncg/internal/bestresponse"
	"gncg/internal/constructions"
	"gncg/internal/dynamics"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/opt"
)

// TestSigmaBoundOnMetricNE is the Thm 1 proof technique verified
// numerically: for exact Nash equilibria on metric hosts, EVERY pair's
// contribution ratio σ against the exact optimum is at most (α+2)/2.
func TestSigmaBoundOnMetricNE(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		alpha := 0.5 + float64(seed)*0.7
		g := game.New(game.NewHost(gen.Points(seed, 6, 2, 10, 2)), alpha)
		s := game.NewState(g, game.EmptyProfile(6))
		res := dynamics.Run(s, dynamics.BestResponseMover, dynamics.RoundRobin{}, 2000)
		if res.Outcome != dynamics.Converged || !bestresponse.IsNash(s) {
			continue
		}
		optRes, err := opt.ExactSmall(g)
		if err != nil {
			t.Fatal(err)
		}
		worst := SigmaMax(s, optRes.Edges)
		if worst.Sigma > (alpha+2)/2+1e-6 {
			t.Fatalf("seed %d alpha %v: pair (%d,%d) has sigma %v > (α+2)/2 = %v",
				seed, alpha, worst.U, worst.V, worst.Sigma, (alpha+2)/2)
		}
	}
}

// TestSigmaTriangleMatchesThm20: the non-metric triangle's σ is exactly
// ((α+2)/2)², attained at the heavy pair (a,c), exceeding the metric
// bound — reproducing why Thm 20's technique cannot give a better upper
// bound than ((α+2)/2)².
func TestSigmaTriangleMatchesThm20(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 3, 4, 8} {
		lb, err := constructions.Thm20Triangle(alpha)
		if err != nil {
			t.Fatal(err)
		}
		s := game.NewState(lb.Game, lb.Equilibrium.Clone())
		worst := SigmaMax(s, lb.Optimum)
		want := math.Pow((alpha+2)/2, 2)
		if math.Abs(worst.Sigma-want) > 1e-9 || worst.U != 0 || worst.V != 2 {
			t.Fatalf("alpha %v: sigma %v at pair (%d,%d), want %v at (0,2)", alpha, worst.Sigma, worst.U, worst.V, want)
		}
		if worst.Sigma <= (alpha+2)/2 {
			t.Fatalf("alpha %v: non-metric sigma should exceed the metric bound", alpha)
		}
	}
}

// TestSigmaMaxAggregation: the social cost ratio never exceeds the max
// pair sigma (the averaging argument behind Thm 1).
func TestSigmaMaxAggregation(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		alpha := 1 + float64(seed)*0.5
		lb, err := constructions.Thm15Star(6, alpha)
		if err != nil {
			t.Fatal(err)
		}
		s := game.NewState(lb.Game, lb.Equilibrium.Clone())
		worst := SigmaMax(s, lb.Optimum)
		if lb.Ratio() > worst.Sigma+1e-9 {
			t.Fatalf("alpha %v: ratio %v exceeds max sigma %v", alpha, lb.Ratio(), worst.Sigma)
		}
	}
}

func TestSigmaOnIdenticalNetworks(t *testing.T) {
	// NE == OPT: every sigma is 1.
	lb, err := constructions.Thm15Star(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	optState := game.NewState(lb.Game, game.ProfileFromEdgeSet(5, lb.Optimum))
	worst := SigmaMax(optState, lb.Optimum)
	if math.Abs(worst.Sigma-1) > 1e-9 {
		t.Fatalf("identical networks: sigma %v, want 1", worst.Sigma)
	}
}
