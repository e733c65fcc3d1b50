package game

import (
	"gncg/internal/bitset"
)

// Rules is the pluggable cost model of the network-creation-game family.
// The engine underneath — strategy profiles, network materialization,
// distance caching and repair, move enumeration, pruning, certificates,
// parallel verification — is model-agnostic; a Rules value supplies the
// pieces that differ between models:
//
//   - StrategyCost: what an agent pays for its purchased edge set (the
//     α·w(u,S_u) term of the paper's model).
//   - DistTerm: one pair's contribution to the distance cost, given its
//     demand weight and network distance (t·d in the paper's model).
//   - AcquirePrice: the marginal price of acquiring one host edge of
//     weight w. This single hook feeds the gain-bound pruning of
//     BestSingleMove, the AcquireGainCertificate layer, the swap refund,
//     the UMFL facility opening costs (bestresponse.BuildInstance) and
//     the per-edge term of SocialCostOfEdgeSet — so those layers stay
//     model-blind. It must be non-negative, monotone non-decreasing in w
//     for fixed alpha, and satisfy StrategyCost(S) ≤ Σ_{v∈S}
//     AcquirePrice(alpha, w(u,v)) (marginal prices never understate the
//     aggregate, or certificates would overstate the refund side).
//   - MoveFeasible / Feasible: the model's strategy constraints (budget
//     caps, locality radii). The paper's model has none.
//   - GainBoundsSound: whether the triangle-inequality gain bounds of
//     moveBounds apply. They require DistTerm to be linear in d with
//     non-negative coefficient (gain ≤ Σ t·max(0, d−w) arguments sum
//     per-pair terms); a model with a nonlinear distance term must
//     return false, which turns off pruning and certificates — the
//     exhaustive scan path stays correct.
//   - ExactNashViaUMFL: whether agent u's best response is exactly the
//     UMFL instance of bestresponse.BuildInstance. True when strategies
//     are unconstrained and StrategyCost is separable as
//     Σ AcquirePrice(alpha, w); models with cross-edge constraints
//     (budget) must return false, and the exact-Nash verification tier
//     rejects them (see bestresponse.VerifyNashWorkers).
//   - SpanningEdgeCostLB: a lower bound on the model's total edge cost
//     of any connected spanning subgraph, given the host MST weight —
//     the edge-side term of opt.LowerBound.
//
// Rules values must be stateless (any parameters derive from the Game,
// e.g. Alpha) and safe for concurrent use: verification workers call
// them from many goroutines against cloned states.
type Rules interface {
	// Name is the model's registry key ("sum", "budget", "unit", ...),
	// the value the sweep engine's model axis carries.
	Name() string

	// StrategyCost returns what agent u pays for strategy strat on game
	// g (the edge-cost side of u's cost; distances are separate): its
	// current strategy for State.EdgeCost, a hypothetical one for
	// State.CostAfter.
	StrategyCost(g *Game, u int, strat bitset.Set) float64

	// DistTerm returns one pair's distance-cost contribution given
	// demand t > 0 and network distance d. Callers guard the diagonal
	// and zero-demand pairs (which contribute an exact 0 even at
	// d = +Inf) before calling; d may be +Inf and must propagate.
	DistTerm(t, d float64) float64

	// AcquirePrice returns the marginal price of acquiring one host
	// edge of weight w under parameter alpha. +Inf host weights must
	// price at +Inf (unbuyable pairs stay unbuyable in every model).
	AcquirePrice(alpha, w float64) float64

	// MoveFeasible reports whether agent m.Agent may perform single-edge
	// move m in state s. Models without strategy constraints return
	// true. Must be consistent with Feasible on the resulting strategy,
	// except that models may additionally admit *repair* moves from
	// infeasible strategies (e.g. budget: any move that decreases
	// spending).
	MoveFeasible(s *State, m Move) bool

	// Feasible reports whether strat is an admissible strategy for
	// agent u on game g.
	Feasible(g *Game, u int, strat bitset.Set) bool

	// GainBoundsSound reports whether moveBounds' gain upper bounds are
	// valid for this model (requires DistTerm linear in d). False turns
	// off pruning and certificates; verification falls back to
	// exhaustive scans and stays exact.
	GainBoundsSound() bool

	// ExactNashViaUMFL reports whether the UMFL reduction of package
	// bestresponse computes exact best responses under this model.
	ExactNashViaUMFL() bool

	// SpanningEdgeCostLB lower-bounds the model's total edge cost of
	// any connected spanning subgraph of an n-node host whose MST
	// weighs mstWeight.
	SpanningEdgeCostLB(alpha, mstWeight float64, n int) float64
}

// SumRules is the paper's sum-distance model: agent u pays
// α·w(u,S_u) + Σ_v t(u,v)·d(u,v). It is the default cost model of every
// game — game.New installs it — and its arithmetic is exactly the
// pre-refactor engine's, operation for operation, so sweeps under
// SumRules are byte-identical to the hardwired implementation they
// replaced (pinned by the golden quick-sweep test in cmd/experiments).
type SumRules struct{}

// Name returns "sum".
func (SumRules) Name() string { return "sum" }

// StrategyCost returns α·w(u,strat): the owned weights fold first, the
// single multiplication by α comes last. The order is load-bearing —
// α·Σw and Σ(α·w) differ by ulps, and this fold shape is the one the
// byte-identity contract pins.
func (SumRules) StrategyCost(g *Game, u int, strat bitset.Set) float64 {
	total := 0.0
	strat.ForEach(func(v int) { total += g.Host.Weight(u, v) })
	return g.Alpha * total
}

// DistTerm returns t·d.
func (SumRules) DistTerm(t, d float64) float64 { return t * d }

// AcquirePrice returns α·w.
func (SumRules) AcquirePrice(alpha, w float64) float64 { return alpha * w }

// MoveFeasible always reports true: the paper's model is unconstrained.
func (SumRules) MoveFeasible(*State, Move) bool { return true }

// Feasible always reports true.
func (SumRules) Feasible(*Game, int, bitset.Set) bool { return true }

// GainBoundsSound reports true: DistTerm is linear in d.
func (SumRules) GainBoundsSound() bool { return true }

// ExactNashViaUMFL reports true: the Thm 3 reduction is exact.
func (SumRules) ExactNashViaUMFL() bool { return true }

// SpanningEdgeCostLB returns α·mstWeight.
func (SumRules) SpanningEdgeCostLB(alpha, mstWeight float64, n int) float64 {
	return alpha * mstWeight
}

// Rules returns the game's cost model, defaulting to SumRules for games
// whose model was never set (including zero-value construction in
// tests), so every pre-existing call site keeps the paper's semantics.
func (g *Game) Rules() Rules {
	if g.rules == nil {
		return SumRules{}
	}
	return g.rules
}

// uniformSum reports whether the game is the paper's plain model:
// uniform traffic under SumRules, where every distance term is d itself.
func (g *Game) uniformSum() bool {
	if g.traffic != nil {
		return false
	}
	_, sum := g.Rules().(SumRules)
	return sum
}

// NewWithRules returns a game on host h with parameter alpha under cost
// model r (nil means SumRules). The alpha parameter keeps its
// model-specific meaning: per-unit-weight edge price under sum, flat
// per-edge price under unit, per-agent budget under budget.
func NewWithRules(h *Host, alpha float64, r Rules) *Game {
	g := New(h, alpha)
	g.rules = r
	return g
}

// FeasibleProfile reports whether every agent's strategy in s is
// admissible under the game's cost model.
func (s *State) FeasibleProfile() bool {
	for u := 0; u < s.G.N(); u++ {
		if !s.G.Rules().Feasible(s.G, u, s.P.S[u]) {
			return false
		}
	}
	return true
}

// SpendOnStrategy returns Σ_{v∈strat} w(u,v): the host weight agent u's
// strategy buys. It is the quantity budget-style models constrain, and
// +Inf when the strategy contains an unbuyable pair.
func SpendOnStrategy(g *Game, u int, strat bitset.Set) float64 {
	total := 0.0
	strat.ForEach(func(v int) { total += g.Host.Weight(u, v) })
	return total
}
