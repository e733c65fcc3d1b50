package game_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/rules"
)

// allMoves lists every buy, delete and swap of agent u, feasible or not:
// CostAfter must price infeasible moves exactly like feasible ones.
func allMoves(s *game.State, u int) []game.Move {
	n := s.G.N()
	owned := s.P.S[u]
	var moves []game.Move
	for v := 0; v < n; v++ {
		if v != u && !owned.Has(v) {
			moves = append(moves, game.Move{Agent: u, Kind: game.Buy, V: v})
		}
	}
	owned.ForEach(func(v int) {
		moves = append(moves, game.Move{Agent: u, Kind: game.Delete, V: v})
		for x := 0; x < n; x++ {
			if x != u && x != v && !owned.Has(x) {
				moves = append(moves, game.Move{Agent: u, Kind: game.Swap, V: v, X: x})
			}
		}
	})
	return moves
}

// zeroTieHost is a matrix host with weights in {0, 1, 2}: zero-weight
// edges and exact ties everywhere, the removal repair's hardest case.
func zeroTieHost(t *testing.T, rng *rand.Rand, n int) *game.Host {
	w := make([][]float64, n)
	for u := range w {
		w[u] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			x := float64(rng.Intn(3))
			w[u][v], w[v][u] = x, x
		}
	}
	h, err := game.HostFromMatrix(w)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// assertCostAfterMatchesOracle evaluates every move of every agent of s
// read-only and compares each result bit for bit (math.Float64bits) with
// the Clone→Apply→Cost oracle, checking after each call that the state's
// network, profile and cache positions and rows are unchanged.
func assertCostAfterMatchesOracle(t *testing.T, s *game.State, ctx string) {
	t.Helper()
	n := s.G.N()
	edges := s.Network().Edges()
	prof := s.P.Clone()
	for u := 0; u < n; u++ {
		view := s.CacheView()
		for _, m := range allMoves(s, u) {
			got := s.CostAfter(m)
			o := s.Clone()
			o.Apply(m)
			want := o.Cost(u)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: CostAfter(%v) = %v (%#x), oracle %v (%#x)",
					ctx, m, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if !prof.Equal(s.P) {
				t.Fatalf("%s: CostAfter(%v) changed the profile", ctx, m)
			}
			if !reflect.DeepEqual(s.Network().Edges(), edges) {
				t.Fatalf("%s: CostAfter(%v) changed the network", ctx, m)
			}
			if after := s.CacheView(); !reflect.DeepEqual(after, view) {
				t.Fatalf("%s: CostAfter(%v) changed the cache: head %d->%d, base %d->%d, log %d->%d, or a row",
					ctx, m, view.Head, after.Head, view.Base, after.Base, view.LogLen, after.LogLen)
			}
		}
	}
}

// runCostAfterCorpus drives the oracle comparison over the host corpus
// (plus zero-weight ties) under every registered cost model: on a fresh
// state, after applied moves leave rows stale, with doubly-owned edges
// forced in, with every row cold, every row warm, one row current and
// the rest stale, under non-uniform traffic, and on a cold clone of the
// moved state.
func runCostAfterCorpus(t *testing.T, seeds int64) {
	flavors := append([]string{"zeroties"}, game.CorpusFlavors...)
	for _, model := range rules.Names() {
		for _, flavor := range flavors {
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 5 + rng.Intn(4)
				var h *game.Host
				if flavor == "zeroties" {
					h = zeroTieHost(t, rng, n)
				} else {
					h = game.CorpusHost(t, rng, n, flavor)
				}
				g := game.NewWithRules(h, 0.3+3*rng.Float64(), rules.MustByName(model))
				// Sparse profiles keep deletions disconnecting; the
				// explicit mutual purchase pins a doubly-owned edge.
				p := game.RandProfile(rng, n, 0.2)
				p.S[0].Add(1)
				p.S[1].Add(0)
				s := game.NewState(g, p)
				ctx := model + "/" + flavor
				assertCostAfterMatchesOracle(t, s, ctx+"/cold")
				for u := 0; u < n; u++ {
					s.Dist(u)
				}
				assertCostAfterMatchesOracle(t, s, ctx+"/warm")
				for step := 0; step < 3; step++ {
					u := rng.Intn(n)
					moves := allMoves(s, u)
					s.Apply(moves[rng.Intn(len(moves))])
					s.Dist(rng.Intn(n)) // one row current, the rest stale
					assertCostAfterMatchesOracle(t, s, ctx+"/stale")
				}
				if seed == 0 {
					tr := make([][]float64, n)
					for u := range tr {
						tr[u] = make([]float64, n)
						for v := range tr[u] {
							if v != u {
								tr[u][v] = float64(rng.Intn(3))
							}
						}
					}
					if err := g.SetTraffic(tr); err != nil {
						t.Fatal(err)
					}
					assertCostAfterMatchesOracle(t, s, ctx+"/traffic")
					g.SetTraffic(nil)
				}
				assertCostAfterMatchesOracle(t, s.Clone(), ctx+"/cold clone")
			}
		}
	}
}

// TestCostAfterBitEqualApplyOracle: read-only CostAfter equals
// Clone→Apply→Cost bit for bit on the host corpus × every move × every
// registered cost model, and leaves the state untouched.
func TestCostAfterBitEqualApplyOracle(t *testing.T) {
	runCostAfterCorpus(t, 3)
}

// TestCostAfterBitEqualApplyOracleRefusals repeats the comparison with
// every removal repair over budget, so the overlay Dijkstra fallback
// runs on each deletion. Not parallel: it swaps the budget hook.
func TestCostAfterBitEqualApplyOracleRefusals(t *testing.T) {
	defer game.SetRepairBudget(func(int) int { return 1 })()
	runCostAfterCorpus(t, 1)
}

// TestCostAfterAllocations bounds the evaluator's allocations: a leaf
// buy on the n = 1000 ℓ2 star, after a warm-up evaluation, allocates at
// most twice. (The scratch is per state and the repair's wavefront heap
// is pooled, so the count is 0 today; the bound leaves room for a heap
// that must grow.)
func TestCostAfterAllocations(t *testing.T) {
	n := 1000
	g := game.New(game.NewHost(gen.Points(13, n, 2, 1000, 2)), float64(n))
	s := game.NewState(g, game.StarProfile(n, 0))
	m := game.Move{Agent: 7, Kind: game.Buy, V: 500}
	s.Cost(m.Agent)
	s.CostAfter(m)
	allocs := testing.AllocsPerRun(100, func() { s.CostAfter(m) })
	if allocs > 2 {
		t.Fatalf("CostAfter on a leaf buy allocates %v times per call, want <= 2", allocs)
	}
	t.Logf("CostAfter on a leaf buy: %v allocations per call", allocs)
}

// firstMinimumBuy is BestBuy's reference: the first feasible Buy in
// CandidateMoves order attaining the strict minimum of CostAfter, kept
// only if it strictly improves on the current cost.
func firstMinimumBuy(s *game.State, u int) (game.Move, float64, bool) {
	cur := s.Cost(u)
	best, cost := game.Move{}, cur
	for _, m := range s.CandidateMoves(u) {
		if m.Kind != game.Buy {
			continue
		}
		if c := s.CostAfter(m); c < cost {
			best, cost = m, c
		}
	}
	if !s.G.Improves(cost, cur) {
		return game.Move{}, cur, false
	}
	return best, cost, true
}

// TestBestBuyMatchesCandidateMoves pins BestBuy to its reference on the
// host corpus × random profiles × every registered cost model (the
// budget model's α straddles the random profiles' spends, so its
// feasibility predicate rejects buys): every agent gets the reference's
// (move, cost, ok) triple, and IsAddOnlyEquilibrium holds exactly when
// no agent has an improving buy.
func TestBestBuyMatchesCandidateMoves(t *testing.T) {
	flavors := append([]string{"zeroties"}, game.CorpusFlavors...)
	for _, model := range rules.Names() {
		for _, flavor := range flavors {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 5 + rng.Intn(5)
				var h *game.Host
				if flavor == "zeroties" {
					h = zeroTieHost(t, rng, n)
				} else {
					h = game.CorpusHost(t, rng, n, flavor)
				}
				alpha := 0.3 + 3*rng.Float64()
				if model == "budget" {
					alpha = 1 + 6*rng.Float64()
				}
				g := game.NewWithRules(h, alpha, rules.MustByName(model))
				// Dense enough that some budget agents start over their cap,
				// sparse enough that most agents have buys left.
				s := game.NewState(g, game.RandProfile(rng, n, 0.15+0.2*rng.Float64()))
				anyImproving := false
				for u := 0; u < n; u++ {
					m, c, ok := s.BestBuy(u)
					wm, wc, wok := firstMinimumBuy(s, u)
					if m != wm || c != wc || ok != wok {
						t.Fatalf("%s/%s seed %d agent %d: BestBuy (%v, %v, %v), reference (%v, %v, %v)",
							model, flavor, seed, u, m, c, ok, wm, wc, wok)
					}
					anyImproving = anyImproving || ok
				}
				if s.IsAddOnlyEquilibrium() == anyImproving {
					t.Fatalf("%s/%s seed %d: IsAddOnlyEquilibrium = %v, but an improving buy exists = %v",
						model, flavor, seed, !anyImproving, anyImproving)
				}
			}
		}
	}
}
