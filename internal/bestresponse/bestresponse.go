// Package bestresponse computes agents' best responses in the GNCG and
// the exact Nash-equilibrium checks built on them.
//
// The key identity (paper, proof of Thm 3): fix agent u, let Z be the set
// of nodes that buy an edge towards u (u cannot remove those edges), and
// let D be shortest-path distances in the created network with vertex u
// deleted. Then for any strategy S of u,
//
//	cost(u, S) = α·Σ_{v∈S} w(u,v) + Σ_{x≠u} min_{v∈S∪Z} ( w(u,v) + D[v][x] ),
//
// because every simple u–x path leaves u exactly once, through some bought
// or gifted edge (u,v). This is precisely Uncapacitated Facility Location
// with facilities V∖{u} (opening cost α·w(u,v), or 0 and locked for v∈Z)
// and clients V∖{u} (connection cost w(u,v)+D[v][x]). Solving that UMFL
// instance exactly yields an exact best response; single-move local search
// yields the paper's 3-approximate best response. Computing a best
// response is NP-hard for every model variant (Cor. 1, Thms 13 and 16),
// which is why the exact path is branch-and-bound rather than polynomial.
package bestresponse

import (
	"math"

	"gncg/internal/bitset"
	"gncg/internal/facility"
	"gncg/internal/game"
	"gncg/internal/parallel"
)

// Result is a computed (possibly approximate) best response.
type Result struct {
	Agent    int
	Strategy bitset.Set // the new S_u
	Cost     float64    // cost(u) under Strategy
}

// Mapping relates game nodes to facility indices: facility i corresponds
// to node Nodes[i] (all nodes except U, in increasing order).
type Mapping struct {
	U     int
	Nodes []int
}

// BuildInstance constructs the UMFL instance encoding agent u's strategy
// choice in the given state. The i-th facility corresponds to the i-th
// element of the returned node list; clients are the subset of nodes u
// has positive demand towards (all of them under the paper's uniform
// model), in node order.
//
// The reduction is exact only for cost models whose edge cost is
// separable per acquired edge and whose strategies are unconstrained —
// the facility opening cost is the model's AcquirePrice, charged
// independently per opened facility. Models that declare
// ExactNashViaUMFL false (the budget model: its cap couples the open
// set) are rejected with a panic rather than silently solving the
// wrong instance.
func BuildInstance(s *game.State, u int) (*facility.Instance, Mapping) {
	if r := s.G.Rules(); !r.ExactNashViaUMFL() {
		panic("bestresponse: cost model " + r.Name() +
			" does not admit the UMFL best-response reduction; use BruteForce (small n) or the greedy tier")
	}
	n := s.G.N()
	nodes := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		if v != u {
			nodes = append(nodes, v)
		}
	}
	// Distances in G(s) with u removed: edges bought towards u still
	// appear in G(s), but no path may pass through u itself. Memoized on
	// the state, so repeated checks against an unchanged network (Nash
	// verification after dynamics, ownership search) pay once.
	D := s.APSPAvoiding(u)

	nf := len(nodes)
	openCost := make([]float64, nf)
	locked := make([]bool, nf)
	conn := make([][]float64, nf)
	alpha := s.G.Alpha
	rules := s.G.Rules()
	for i, v := range nodes {
		if s.P.Buys(v, u) {
			locked[i] = true
			openCost[i] = 0
		} else {
			openCost[i] = rules.AcquirePrice(alpha, s.G.Host.Weight(u, v))
		}
	}
	// Clients are the positive-demand nodes only: a zero-demand node
	// costs u nothing even when unreachable, so it must not constrain
	// the facility choice (it can still serve as a facility/gateway).
	conn = conn[:0]
	for _, x := range nodes {
		t := s.G.Traffic(u, x) // demand weight; 1 in the paper's model
		if t == 0 {
			continue
		}
		row := make([]float64, nf)
		for vi, v := range nodes {
			w := s.G.Host.Weight(u, v)
			var c float64
			if x == v {
				c = w
			} else {
				c = w + D[v][x]
			}
			if math.IsInf(c, 1) {
				row[vi] = c
			} else {
				row[vi] = t * c
			}
		}
		conn = append(conn, row)
	}
	ins, err := facility.NewInstance(openCost, conn, locked)
	if err != nil {
		// The state supplies non-negative weights and distances, so this
		// is unreachable; panicking keeps the API clean.
		panic("bestresponse: invalid derived instance: " + err.Error())
	}
	return ins, Mapping{U: u, Nodes: nodes}
}

// Strategy translates an opened-facility set back into a game strategy.
func (m Mapping) Strategy(n int, open bitset.Set) bitset.Set {
	strat := bitset.New(n)
	open.ForEach(func(fi int) { strat.Add(m.Nodes[fi]) })
	return strat
}

// Exact computes agent u's exact best response and its cost.
func Exact(s *game.State, u int) Result {
	ins, m := BuildInstance(s, u)
	sol := facility.Exact(ins)
	strat := m.Strategy(s.G.N(), sol.Open)
	pruneLocked(s, u, strat)
	return Result{Agent: u, Strategy: strat, Cost: sol.Cost}
}

// ApproxLocalSearch computes a 3-approximate best response by UMFL local
// search seeded with u's current strategy (Thm 3's algorithm).
func ApproxLocalSearch(s *game.State, u int) Result {
	ins, m := BuildInstance(s, u)
	start := bitset.New(ins.NumFacilities())
	for i, v := range m.Nodes {
		if s.P.Buys(u, v) && !ins.Locked[i] {
			start.Add(i)
		}
	}
	sol := facility.LocalSearch(ins, start, s.G.Eps, 1_000_000)
	strat := m.Strategy(s.G.N(), sol.Open)
	pruneLocked(s, u, strat)
	return Result{Agent: u, Strategy: strat, Cost: sol.Cost}
}

// pruneLocked drops nodes that already buy an edge to u from u's
// strategy: re-buying an existing edge adds cost and no connectivity, and
// the facility solver treats those facilities as free/locked rather than
// as purchases.
func pruneLocked(s *game.State, u int, strat bitset.Set) {
	for _, v := range strat.Elems() {
		if s.P.Buys(v, u) {
			strat.Remove(v)
		}
	}
}

// BruteForce computes the exact best response by enumerating all 2^(n-1)
// strategies and evaluating each on the real network, skipping
// strategies the cost model rules infeasible. Exponentially slow; it
// exists as an independent oracle to validate the UMFL mapping in
// tests, as a baseline in benchmarks, and as the only exact
// best-response path for models without the UMFL reduction (budget).
func BruteForce(s *game.State, u int) Result {
	n := s.G.N()
	others := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		if v != u {
			others = append(others, v)
		}
	}
	if len(others) > 25 {
		panic("bestresponse: brute force beyond 2^25 strategies")
	}
	rules := s.G.Rules()
	work := s.Clone()
	best := Result{Agent: u, Cost: math.Inf(1)}
	for mask := 0; mask < 1<<len(others); mask++ {
		strat := bitset.New(n)
		for i, v := range others {
			if mask&(1<<i) != 0 {
				strat.Add(v)
			}
		}
		if !rules.Feasible(s.G, u, strat) {
			continue
		}
		work.SetStrategy(u, strat)
		if c := work.Cost(u); c < best.Cost {
			best.Cost = c
			best.Strategy = strat
		}
	}
	return best
}

// IsNash reports whether no agent has any strictly improving strategy
// change, using exact best responses for every agent (computed in
// parallel; see VerifyNashWorkers for the explicit-worker form).
// Exponential in the worst case; intended for the small-n verification
// tier.
func IsNash(s *game.State) bool {
	return VerifyNashWorkers(s, 0).Nash
}

// NashApproxFactor returns the smallest β such that the state is a β-NE:
// the largest ratio of an agent's current cost to its exact best-response
// cost. Returns 1 for exact equilibria and +Inf if some agent can move
// from infinite to finite cost.
func NashApproxFactor(s *game.State) float64 {
	n := s.G.N()
	factors := parallel.Map(n, func(u int) float64 {
		cur := s.Cost(u)
		br := Exact(s, u)
		if !s.G.Improves(br.Cost, cur) {
			return 1
		}
		if br.Cost <= 0 || math.IsInf(cur, 1) {
			return math.Inf(1)
		}
		return cur / br.Cost
	})
	worst := 1.0
	for _, f := range factors {
		if f > worst {
			worst = f
		}
	}
	return worst
}
