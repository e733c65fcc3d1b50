// Package poa measures Price-of-Anarchy quantities: cost ratios between
// candidate equilibria and candidate optima, sweeps of the paper's
// lower-bound families over α and size, and empirical PoA estimates from
// equilibria found by dynamics on random instances. Together these
// regenerate the PoA column of Table 1 and the quantitative content of
// Figures 3, 6, 9 and 10.
//
// Equilibrium candidates are verified at the strongest affordable tier,
// downgrading with instance size rather than failing: exact Nash
// (TierExactNash, one exact best response per agent) up to
// exactNashLimit, certified parallel greedy verification (TierGreedy,
// game.VerifyGreedyEquilibrium) up to greedyVerifyLimitFor(workers),
// and measurement-only (TierNone, rendered "unchecked") beyond. The
// tier a row lands in depends only on n and the worker budget — never
// on the verdict — and verdicts themselves are identical for every
// worker count, so sweep rows stay byte-deterministic.
package poa

import (
	"fmt"
	"math"

	"gncg/internal/bestresponse"
	"gncg/internal/constructions"
	"gncg/internal/dynamics"
	"gncg/internal/game"
	"gncg/internal/opt"
	"gncg/internal/parallel"
)

// VerificationTier states how strongly an equilibrium candidate was
// checked.
type VerificationTier int

const (
	// TierNone: the candidate was not checked.
	TierNone VerificationTier = iota
	// TierGreedy: no single buy/delete/swap improves (necessary for NE).
	TierGreedy
	// TierExactNash: no agent has any improving strategy (exact NE).
	TierExactNash
)

// String names the tier.
func (v VerificationTier) String() string {
	switch v {
	case TierGreedy:
		return "GE-checked"
	case TierExactNash:
		return "NE-exact"
	default:
		return "unchecked"
	}
}

// Row is one cell of a lower-bound sweep.
type Row struct {
	Name      string
	Alpha     float64
	Size      int
	Ratio     float64
	Predicted float64
	Tier      VerificationTier
	Stable    bool // the candidate passed the check of its tier
	// VerifyWorkers is the verification worker count the row's check
	// ran with (0 when the row went unverified), and CertSkipped counts
	// agents the greedy tier's gain-bound certificates proved stable
	// without a candidate scan (game.GainCertificate). Both are
	// worker-schedule-invariant, so rows stay byte-deterministic.
	VerifyWorkers int
	CertSkipped   int
}

// exactNashLimit bounds the instance size for exact NE verification in
// sweeps: beyond it the greedy tier is used. The check computes one
// exact best response per agent — worst-case exponential regardless of
// how many workers share the agents — so the limit does not scale with
// the worker count: parallelism buys a constant factor against an
// exponential wall.
const exactNashLimit = 14

// greedyVerifyLimit is the instance-size budget for single-worker
// greedy-equilibrium verification. The magic number is a wall-clock
// budget, not a correctness bound: each agent's certificate pass is
// O(n log n) and each non-skipped agent's scan is ~n candidate
// evaluations, so a full check is quadratic-plus and ~n = 2000 is where
// it stops paying for itself in interactive sweeps on one core.
//
// greedyVerifyLimitFor scales the budget with the verification worker
// count: total verification work grows ~quadratically in n while
// workers divide wall time linearly, so equal wall time is reached at
// n ≈ base·√workers (4 workers ⇒ ~4000, 16 ⇒ 8000). The downgrade
// policy is unchanged: a row beyond the (scaled) limit still measures
// its ratio — hosts are lazy, so construction and cost evaluation stay
// O(n) memory at n = 5000+ — but goes unverified: TierNone with
// Stable=false, rendered "unchecked".
const greedyVerifyLimit = 2000

func greedyVerifyLimitFor(workers int) int {
	if workers <= 1 {
		return greedyVerifyLimit
	}
	return int(float64(greedyVerifyLimit) * math.Sqrt(float64(workers)))
}

// VerifyLowerBoundWorkers checks a construction's equilibrium candidate
// at the strongest tier affordable with the given verification worker
// budget (<= 0 means GOMAXPROCS): exact Nash via one exact best
// response per agent (bestresponse.VerifyNashWorkers) up to
// exactNashLimit, then certificate-accelerated parallel greedy
// verification (game.VerifyGreedyEquilibrium) up to
// greedyVerifyLimitFor(workers), then measurement only. Verdicts are
// identical for every worker count; only wall time and the tier cutoff
// depend on the budget.
func VerifyLowerBoundWorkers(lb *constructions.LowerBound, size, workers int) Row {
	if workers <= 0 {
		workers = parallel.Workers()
	}
	row := MeasureLowerBound(lb, size)
	n := lb.Game.N()
	// The exact-Nash tier is model-gated: cost models without the UMFL
	// best-response reduction (Rules.ExactNashViaUMFL false) cannot be
	// exactly verified — bestresponse.VerifyNashWorkers rejects them —
	// so such games downgrade to the greedy tier instead of panicking.
	// Tier assignment still depends only on (n, workers, model), never
	// on a verdict, so rows stay byte-deterministic.
	switch {
	case n <= exactNashLimit && lb.Game.Rules().ExactNashViaUMFL():
		rep := bestresponse.VerifyNashWorkers(game.NewState(lb.Game, lb.Equilibrium.Clone()), workers)
		row.Tier = TierExactNash
		row.Stable = rep.Nash
		row.VerifyWorkers = rep.Workers
	case n <= greedyVerifyLimitFor(workers):
		res := game.VerifyGreedyEquilibrium(
			game.NewState(lb.Game, lb.Equilibrium.Clone()),
			game.VerifyOptions{Workers: workers})
		row.Tier = TierGreedy
		row.Stable = res.Stable
		row.VerifyWorkers = res.Workers
		row.CertSkipped = res.CertSkipped
	}
	return row
}

// MeasureLowerBound evaluates a construction's ratio without verifying
// the equilibrium candidate (TierNone): the measurement path for sizes
// beyond greedyVerifyLimit, where cmd/poa ladders the closed-form
// families to n = 5000+ on lazy hosts.
func MeasureLowerBound(lb *constructions.LowerBound, size int) Row {
	return Row{
		Name:      lb.Name,
		Alpha:     lb.Game.Alpha,
		Size:      size,
		Ratio:     lb.Ratio(),
		Predicted: lb.Predicted,
	}
}

// familyConstructors maps the CLI family names to their lower-bound
// constructors. thm8a1 ignores alpha (the family is defined at α = 1).
var familyConstructors = map[string]func(size int, alpha float64) (*constructions.LowerBound, error){
	"thm15":    constructions.Thm15Star,
	"thm19":    constructions.Thm19CrossPolytope,
	"thm8a1":   func(size int, _ float64) (*constructions.LowerBound, error) { return constructions.Thm8AlphaOne(size) },
	"thm8half": constructions.Thm8HalfToOne,
	"lemma8":   constructions.Lemma8Path,
}

// SweepFamily runs one named lower-bound family ("thm15", "thm19",
// "thm8a1", "thm8half", "lemma8") across the size ladder with an
// explicit verification worker budget per cell (<= 0 means GOMAXPROCS;
// see VerifyLowerBoundWorkers). Cells are constructed, then verified, in
// parallel; verdicts and ratios are identical for any budget, only the
// tier cutoff and wall time move. A size the family rejects fails the
// sweep before any cell is verified, with the first constructor error in
// size order.
func SweepFamily(family string, alpha float64, sizes []int, verifyWorkers int) ([]Row, error) {
	build, ok := familyConstructors[family]
	if !ok {
		return nil, fmt.Errorf("poa: unknown family %q", family)
	}
	lbs := make([]*constructions.LowerBound, len(sizes))
	if err := parallel.FirstErr(len(sizes), func(i int) (err error) {
		lbs[i], err = build(sizes[i], alpha)
		return err
	}); err != nil {
		return nil, err
	}
	return parallel.Map(len(sizes), func(i int) Row {
		return VerifyLowerBoundWorkers(lbs[i], sizes[i], verifyWorkers)
	}), nil
}

// Empirical is the result of estimating the PoA on one random instance:
// the worst equilibrium found by dynamics from several starts, against
// the best optimum candidate available.
type Empirical struct {
	WorstRatio  float64 // max over found equilibria of cost/OPT-candidate
	Found       int     // equilibria found (dynamics runs that converged)
	Diameter    float64 // diameter of the worst equilibrium network
	UpperBound  float64 // the paper's bound this instance must respect
	OptimumCost float64
}

// EmpiricalPoA runs dynamics from `starts` seeded random profiles plus
// the empty profile, collects converged (greedy-)equilibria, and reports
// the worst cost ratio against the best available optimum candidate
// (exhaustive for n <= 7, heuristic otherwise). upperBound is the paper
// bound recorded alongside for the harness to compare against.
func EmpiricalPoA(g *game.Game, starts int, seed int64, upperBound float64) Empirical {
	optCost := bestOptimum(g)
	type run struct {
		cost float64
		diam float64
		ok   bool
	}
	runs := parallel.Map(starts+1, func(i int) run {
		var p game.Profile
		if i == 0 {
			p = game.EmptyProfile(g.N())
		} else {
			p = randomProfile(seed+int64(i)*2654435761, g.N(), 0.3)
		}
		s := game.NewState(g, p)
		res := dynamics.Run(s, dynamics.GreedyMover, dynamics.RoundRobin{}, 20000)
		if res.Outcome != dynamics.Converged || !s.Connected() {
			return run{}
		}
		return run{cost: s.SocialCost(), diam: s.Network().Diameter(), ok: true}
	})
	out := Empirical{UpperBound: upperBound, OptimumCost: optCost}
	for _, r := range runs {
		if !r.ok {
			continue
		}
		out.Found++
		if ratio := r.cost / optCost; ratio > out.WorstRatio {
			out.WorstRatio = ratio
			out.Diameter = r.diam
		}
	}
	return out
}

func bestOptimum(g *game.Game) float64 {
	if g.N() <= 7 {
		if res, err := opt.ExactSmall(g); err == nil {
			return res.Cost
		}
	}
	return opt.BestCandidate(g, 400).Cost
}

func randomProfile(seed int64, n int, p float64) game.Profile {
	// Cheap deterministic PRNG (splitmix-style) to avoid importing
	// math/rand here; quality is irrelevant for start diversity.
	state := uint64(seed)
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53)
	}
	prof := game.EmptyProfile(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && next() < p {
				prof.Buy(u, v)
			}
		}
	}
	return prof
}
