package game

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gncg/internal/bitset"
	"gncg/internal/graph"
)

// MoveKind enumerates the single-edge moves of the paper's greedy
// equilibrium notion: buying one edge, deleting one owned edge, or
// swapping one owned edge for another.
type MoveKind int

const (
	// Buy adds V to the agent's strategy.
	Buy MoveKind = iota
	// Delete removes V from the agent's strategy.
	Delete
	// Swap removes V and adds X.
	Swap
)

// Move is a single-edge strategy change by one agent.
type Move struct {
	Agent int
	Kind  MoveKind
	V     int // edge endpoint bought (Buy), deleted (Delete), or deleted side of a swap
	X     int // bought side of a swap
}

// String renders the move in the paper's vocabulary.
func (m Move) String() string {
	switch m.Kind {
	case Buy:
		return fmt.Sprintf("agent %d buys (%d,%d)", m.Agent, m.Agent, m.V)
	case Delete:
		return fmt.Sprintf("agent %d deletes (%d,%d)", m.Agent, m.Agent, m.V)
	case Swap:
		return fmt.Sprintf("agent %d swaps (%d,%d) for (%d,%d)", m.Agent, m.Agent, m.V, m.Agent, m.X)
	default:
		return fmt.Sprintf("invalid move kind %d", int(m.Kind))
	}
}

// NewStrategy returns the strategy that applying m to cur produces,
// without mutating cur. It is the single definition of how a move edits a
// strategy — State.Apply and the dynamics movers both go through it, so
// the two paths cannot drift. It panics on malformed moves: an invalid
// kind, a self-targeted endpoint, or a Delete/Swap whose deleted endpoint
// V is not owned (buying an already-owned node remains a no-op, and is
// allowed).
func (m Move) NewStrategy(cur bitset.Set) bitset.Set {
	strat := cur.Clone()
	m.edit(cur, strat)
	return strat
}

// edit applies m to strat, which holds a copy of cur.
func (m Move) edit(cur, strat bitset.Set) {
	switch m.Kind {
	case Buy:
		m.checkEndpoint(m.V)
		strat.Add(m.V)
	case Delete:
		m.checkOwned(cur, m.V)
		strat.Remove(m.V)
	case Swap:
		m.checkOwned(cur, m.V)
		m.checkEndpoint(m.X)
		strat.Remove(m.V)
		strat.Add(m.X)
	default:
		panic("game: invalid move kind")
	}
}

func (m Move) checkEndpoint(v int) {
	if v == m.Agent {
		panic(fmt.Sprintf("game: malformed move %q: self-targeted endpoint", m))
	}
}

func (m Move) checkOwned(cur bitset.Set, v int) {
	m.checkEndpoint(v)
	if !cur.Has(v) {
		panic(fmt.Sprintf("game: malformed move %q: agent %d does not own (%d,%d)",
			m, m.Agent, m.Agent, v))
	}
}

// Apply mutates the state by performing the move. It panics on malformed
// moves, with Move.NewStrategy's contract: deleting or swapping out an
// edge the agent does not own is an error, not a silent no-op or a
// degenerate buy; buying an already-bought edge is a no-op and allowed.
func (s *State) Apply(m Move) {
	s.SetStrategy(m.Agent, m.NewStrategy(s.P.S[m.Agent]))
}

// CostAfter evaluates the mover's cost after the move without mutating
// anything: the network, the profile, the distance cache's delta log,
// its rows and their positions are all left as they were. The
// hypothetical strategy is priced by the cost model directly
// (Rules.StrategyCost). The distance side copies the mover's current row
// into per-state scratch and repairs the copy across the move's edge
// diff — flipped exactly as SetStrategy would flip it — against an
// overlay of the unmodified network (graph.RepairRowOverlay), then
// refolds only the aggregate blocks the repair touched over the row's
// cached block sums. A cold or stale row (scans read Cost(u) first, so
// the mover's row is normally current) or a refused removal repair runs
// a Dijkstra over the same overlay instead.
// Every path yields exactly the row a fresh Dijkstra on the moved network
// would, folded in the aggregates' fixed shape, and prices the strategy
// with the same fold as EdgeCost — so the result is bit-identical to
// applying the move and calling Cost, with no tolerance anywhere.
//
// CostAfter panics on malformed moves, with Move.NewStrategy's contract.
// Its scratch is per state, so a state runs one evaluation at a time,
// like any other single-threaded use.
func (s *State) CostAfter(m Move) float64 {
	u := m.Agent
	e := s.evalScratch()
	cur := s.P.S[u]
	e.strat.Clear()
	e.strat.Union(cur)
	m.edit(cur, e.strat)
	e.flips = s.strategyFlips(u, cur, e.strat, e.flips[:0])
	e.removed, e.added = e.removed[:0], e.added[:0]
	for _, f := range e.flips {
		if f.add {
			e.added = append(e.added, graph.Edge{U: u, V: f.v, W: f.w})
		} else {
			e.removed = append(e.removed, graph.Edge{U: u, V: f.v, W: f.w})
		}
	}
	return s.G.Rules().StrategyCost(s.G, u, e.strat) + s.distCostOverlay(u, e)
}

// evalScratch is CostAfter's working memory: the mover's hypothetical
// strategy and edge diff, and private copies of its distance row and
// aggregate block sums with per-block dirty flags (set by mark). A state
// allocates it on its first evaluation — never in NewState or Clone —
// and reuses it after.
type evalScratch struct {
	strat          bitset.Set
	flips          []edgeFlip
	removed, added []graph.Edge
	row, blocks    []float64
	dirty          []bool
	mark           func(x int)
}

func (s *State) evalScratch() *evalScratch {
	if s.eval == nil {
		n, nb := s.G.N(), (s.G.N()+aggBlock-1)/aggBlock
		e := &evalScratch{
			strat:   bitset.New(n),
			flips:   make([]edgeFlip, 0, 2),
			removed: make([]graph.Edge, 0, 2),
			added:   make([]graph.Edge, 0, 2),
			row:     make([]float64, n),
			blocks:  make([]float64, nb),
			dirty:   make([]bool, nb),
		}
		e.mark = func(x int) { markBlock(e.dirty, x) }
		s.eval = e
	}
	return s.eval
}

// distCostOverlay returns DistCost(u) in the network with e's edge diff
// (all incident to u) applied, without applying it.
func (s *State) distCostOverlay(u int, e *evalScratch) float64 {
	row := e.row
	if s.copyCurrentRow(u, row, e.blocks) &&
		s.net.RepairRowOverlay(row, u, e.removed, e.added, repairBudget(len(row)), e.mark) {
		return s.refold(u, row, e.blocks, e.dirty)
	}
	s.net.DijkstraOverlay(row, u, e.removed, e.added)
	return s.foldDistCost(u, row)
}

// CandidateMoves enumerates every legal single-edge move for agent u in
// the current state: all buys of non-owned nodes, all deletions of owned
// edges, and all swaps of an owned edge for a non-owned node — filtered
// through the cost model's feasibility predicate (a no-op under the
// unconstrained default SumRules).
func (s *State) CandidateMoves(u int) []Move {
	n := s.G.N()
	owned := s.P.S[u]
	r := s.G.Rules()
	var moves []Move
	add := func(m Move) {
		if r.MoveFeasible(s, m) {
			moves = append(moves, m)
		}
	}
	for v := 0; v < n; v++ {
		if v == u || owned.Has(v) {
			continue
		}
		add(Move{Agent: u, Kind: Buy, V: v})
	}
	owned.ForEach(func(v int) {
		add(Move{Agent: u, Kind: Delete, V: v})
		for x := 0; x < n; x++ {
			if x == u || x == v || owned.Has(x) {
				continue
			}
			add(Move{Agent: u, Kind: Swap, V: v, X: x})
		}
	})
	return moves
}

// BestSingleMove returns agent u's best single-edge move and the cost it
// achieves. If no move strictly improves on the current cost, ok is false,
// the returned cost is the current cost, and the returned move is
// meaningless. The scan is neighborhood-pruned: candidates whose
// distance-gain upper bound (derived from u's current distance row and
// the network triangle inequality, see moveBounds) provably cannot beat
// the running best are skipped without evaluation. Pruning never changes
// the outcome — BestSingleMoveExact is the unpruned oracle, and property
// tests pin (move, cost, ok) equality between the two.
func (s *State) BestSingleMove(u int) (best Move, cost float64, ok bool) {
	return s.bestSingleMove(u, true)
}

// BestSingleMoveExact is the exhaustive-scan oracle for BestSingleMove:
// every candidate move is evaluated. It exists for tests and as the
// fallback when pruning bounds do not apply (infinite current cost).
func (s *State) BestSingleMoveExact(u int) (best Move, cost float64, ok bool) {
	return s.bestSingleMove(u, false)
}

// bestSingleMove picks the scan tier and hands its acquisition targets
// to the one moveScan walk. On top of the per-candidate pruning sit two
// geometric tiers (see candidates.go), both gated on the global
// candidate-generation toggle and both outcome-preserving: the metric
// excess certificate, which reduces the scan to the agent's deletions
// without enumerating acquisition targets at all, and the candidate
// tier, which walks only the host's CandidateSource neighborhood inside
// a certified cutoff radius — every unenumerated target provably
// satisfies the same skip condition the pruned scan applies. Every tier,
// pruned or not, visits its moves in the walk's order, so the first
// candidate attaining the minimum — which is never pruned — wins in all
// of them.
func (s *State) bestSingleMove(u int, prune bool) (Move, float64, bool) {
	sc := s.newMoveScan(u)
	geo := prune && CandidateGenerationEnabled()
	if geo && s.excessRulesOutAcquisitions(u, sc.cur, sc.owned) {
		s.scan.ExcessSkips++
		sc.walk(nil)
		return sc.finish()
	}
	if prune {
		sc.pb = s.newMoveBounds(u, sc.cur)
	}
	if geo && sc.pb != nil {
		if src := s.G.Host.candidateSource(); src != nil {
			if rCut, ok := sc.pb.acquireCutoff(s.maxRefundPrice(u, sc.owned)); ok {
				s.scan.CandidateScans++
				s.candBuf = src.AppendWithin(u, rCut, s.candBuf[:0])
				s.scan.CandidatesScanned += len(s.candBuf)
				sc.walk(s.candBuf)
				return sc.finish()
			}
			s.scan.Fallbacks++
		}
	}
	if prune {
		s.scan.ExhaustiveScans++
	}
	sc.walk(s.everyVertex())
	return sc.finish()
}

// everyVertex returns 0..n-1 in the state's reused candidate buffer: the
// acquisition targets of the exhaustive scans.
func (s *State) everyVertex() []int {
	buf := s.candBuf[:0]
	for v := range s.G.N() {
		buf = append(buf, v)
	}
	s.candBuf = buf
	return buf
}

// moveScan is the single best-move scan behind every tier, BestBuy and
// the verifier's deletion check. Callers choose only the acquisition
// targets and whether pb prunes; the walk fixes the order moves are
// visited in, and the fold keeps the first candidate attaining the
// strict minimum — so the tie-break contract lives here and nowhere
// else. CandidateMoves lists the same moves in the same order and is
// the tests' reference for it.
type moveScan struct {
	s     *State
	rules Rules
	u     int
	owned bitset.Set
	cur   float64 // u's current cost
	cost  float64 // running minimum, starting at cur
	best  Move
	// pb, when non-nil, skips acquisitions its gain bounds prove
	// non-improving; checked and pruned are the adaptive bail's counts.
	pb              *moveBounds
	checked, pruned int
}

func (s *State) newMoveScan(u int) moveScan {
	cur := s.Cost(u)
	return moveScan{s: s, rules: s.G.Rules(), u: u, owned: s.P.S[u], cur: cur, cost: cur}
}

// walk visits agent u's single-edge moves in the scan order: a Buy
// towards each target, then for each owned v in ascending order, Delete
// v followed by a Swap of v towards each target. targets must be
// ascending; u and owned vertices are never acquired. A nil target list
// walks the deletions alone.
func (sc *moveScan) walk(targets []int) {
	sc.buys(targets)
	sc.owned.ForEach(func(v int) {
		sc.consider(Move{Agent: sc.u, Kind: Delete, V: v})
		var refund float64
		if sc.pb != nil {
			refund = sc.pb.rules.AcquirePrice(sc.pb.alpha, sc.s.hostWeight(sc.u, v))
		}
		for _, x := range targets {
			if sc.acquires(x, refund) {
				sc.consider(Move{Agent: sc.u, Kind: Swap, V: v, X: x})
			}
		}
	})
}

// buys is the walk's first leg: a Buy towards each target.
func (sc *moveScan) buys(targets []int) {
	for _, v := range targets {
		if sc.acquires(v, 0) {
			sc.consider(Move{Agent: sc.u, Kind: Buy, V: v})
		}
	}
}

// acquires reports whether the walk evaluates an acquisition towards y
// (refund is the swapped-out edge's price, 0 for a buy): y must be
// acquirable, and the bounds, while they still pay, must not rule it
// out.
//
// Adaptive bail: bound checks only pay for themselves when they
// actually prune (near-stable states, large α). If the first probe
// window prunes under a sixth of its candidates — improvement-rich
// states where most moves genuinely must be evaluated — stop checking
// and run exhaustively. The decision depends only on the scan's own
// history, so results stay deterministic (and pruning never changes
// them either way).
func (sc *moveScan) acquires(y int, refund float64) bool {
	if y == sc.u || sc.owned.Has(y) {
		return false
	}
	if sc.pb == nil || (sc.checked >= 96 && sc.pruned*6 < sc.checked) {
		return true
	}
	sc.checked++
	if sc.pb.skipAcquire(sc.s.hostWeight(sc.u, y), sc.pb.duv[y], refund, sc.cur-sc.cost) {
		sc.pruned++
		return false
	}
	return true
}

// consider folds one move: a model-feasible move whose cost is strictly
// below the running minimum becomes the best.
func (sc *moveScan) consider(m Move) {
	if !sc.rules.MoveFeasible(sc.s, m) {
		return
	}
	if c := sc.s.CostAfter(m); c < sc.cost {
		sc.cost = c
		sc.best = m
	}
}

// finish returns the scan's (move, cost, ok) triple.
func (sc *moveScan) finish() (Move, float64, bool) {
	if !sc.s.G.Improves(sc.cost, sc.cur) {
		// The running best may hold a sub-tolerance improver that a tier
		// with fewer enumerated candidates never saw; reset it so the
		// "meaningless" move is one fixed value and every scan tier — and
		// the exact oracle — returns an identical triple.
		return Move{}, sc.cur, false
	}
	return sc.best, sc.cost, true
}

// moveBounds holds the per-agent quantities behind the pruned move scan.
// For a move that acquires the host edge (u,y) of weight w — a buy, or
// the bought half of a swap — the traffic-weighted distance gain is
// bounded above by both
//
//	gainUB(w) = Σ_x t(u,x)·max(0, d(u,x) − w)
//
// (acquiring a direct edge of length w cannot bring any x closer than w;
// one sorted pass over u's distance row answers it in O(log n) per
// candidate) and
//
//	T · max(0, d(u,y) − w),  T = Σ_x t(u,x)
//
// (by the network triangle inequality d(u,x) ≤ d(u,y) + d(y,x), each
// term of the gain is at most d(u,y) − w; deletions on the swapped-out
// side only increase distances and cannot enlarge the gain). A candidate
// is skipped when the smaller bound, minus the edge-price delta, cannot
// exceed the larger of the strict-improvement tolerance and the running
// best improvement — minus a float slack absorbing the ulp-level
// divergence between real-arithmetic bounds and float path sums, so a
// pruned candidate can never be one the oracle would have accepted.
//
// The bounds need a finite current cost (an agent that cannot reach a
// positive-demand node gains unboundedly from reconnection) and a cost
// model whose DistTerm is linear in d (Rules.GainBoundsSound);
// newMoveBounds returns nil otherwise and the scan falls back to the
// oracle. Edge prices and refunds go through Rules.AcquirePrice, so the
// bounds stay sound under any model that declares them applicable.
type moveBounds struct {
	duv   []float64 // private copy of u's distance row (repair-safe)
	pairs []distDemand
	ds    []float64 // positive-traffic distances, ascending (lazy: ensureSorted)
	std   []float64 // std[i] = Σ_{j≥i} t_j·ds[j]
	st    []float64 // st[i] = Σ_{j≥i} t_j
	tpos  float64   // Σ_x t(u,x)
	sumTD float64   // Σ_x t(u,x)·d(u,x) = gainUB(0), the coarse gain ceiling
	minD  float64   // smallest positive-traffic distance
	maxD  float64   // largest positive-traffic distance
	// excessUB bounds the gain of ANY acquiring move on a structurally
	// metric host: distances cannot drop below the host-metric floor, so
	// gain ≤ Σ_x t·(d − w) = sumTD − trafficFloorSum. +Inf on non-metric
	// hosts. O(1) per candidate, independent of the candidate — it is
	// what prunes the near field where the pair and sorted-row bounds
	// (which allow a short edge to shortcut towards everything) stay
	// hopelessly loose.
	excessUB float64
	alpha    float64
	eps      float64
	slack    float64
	rules    Rules
}

type distDemand struct{ d, t float64 }

// costSlack is the float slack of every gain bound at current cost cur:
// it absorbs the ulp-level divergence between the real-arithmetic bounds
// and float path sums, so no bound rules out a move the exact oracle
// would accept.
func costSlack(cur float64) float64 { return 1e-11 * (1 + math.Abs(cur)) }

func (s *State) newMoveBounds(u int, cur float64) *moveBounds {
	if math.IsInf(cur, 1) {
		return nil
	}
	r := s.G.Rules()
	if !r.GainBoundsSound() {
		return nil
	}
	row := s.Dist(u)
	pb := &moveBounds{
		duv:   append([]float64(nil), row...), // Dist rows are repaired in place mid-scan
		alpha: s.G.Alpha,
		eps:   s.G.Eps,
		slack: costSlack(cur),
		rules: r,
	}
	pb.pairs = make([]distDemand, 0, len(row))
	pb.minD = math.Inf(1)
	for x, d := range row {
		if x == u {
			continue
		}
		t := s.G.Traffic(u, x)
		if t == 0 {
			continue // zero demand contributes no gain (and tolerates d = +Inf)
		}
		pb.pairs = append(pb.pairs, distDemand{d, t})
		pb.tpos += t
		pb.sumTD += t * d
		if d > pb.maxD {
			pb.maxD = d
		}
		if d < pb.minD {
			pb.minD = d
		}
	}
	pb.excessUB = math.Inf(1)
	if s.G.Host.metricByConstruction(s.G.Eps) {
		if floor := s.G.trafficFloorSum(u); !math.IsInf(floor, 0) && !math.IsNaN(floor) {
			pb.excessUB = pb.sumTD - floor
		}
	}
	return pb
}

// ensureSorted builds the sorted-row prefix arrays behind gainUB on
// first use. The O(n log n) sort is deferred because the geometric
// candidate tier usually resolves its whole scan from the coarse sumTD
// ceiling and the O(1) pair bound — the common large-n case never pays
// for a sort it does not consult.
func (pb *moveBounds) ensureSorted() {
	if pb.ds != nil || pb.pairs == nil {
		return
	}
	pairs := pb.pairs
	// Ties on d break on t, so the prefix sums below never depend on the
	// sort algorithm's order among equal distances.
	slices.SortFunc(pairs, func(a, b distDemand) int {
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		}
		return 0
	})
	pb.ds = make([]float64, len(pairs))
	pb.std = make([]float64, len(pairs)+1)
	pb.st = make([]float64, len(pairs)+1)
	for i := len(pairs) - 1; i >= 0; i-- {
		pb.ds[i] = pairs[i].d
		pb.std[i] = pb.std[i+1] + pairs[i].t*pairs[i].d
		pb.st[i] = pb.st[i+1] + pairs[i].t
	}
}

// gainUB returns Σ_x t(u,x)·max(0, d(u,x) − w).
func (pb *moveBounds) gainUB(w float64) float64 {
	if w <= pb.minD {
		// Every positive-traffic distance is ≥ w, so no max(·) clamps and
		// the sum collapses to the O(1) aggregates — the geometric tier's
		// candidates all sit below the nearest network distance, so this
		// shortcut is what keeps that tier free of the O(n log n) sort.
		return pb.sumTD - w*pb.tpos
	}
	pb.ensureSorted()
	i := sort.SearchFloat64s(pb.ds, w) // first index with ds[i] ≥ w; equal terms contribute 0
	return pb.std[i] - w*pb.st[i]
}

// skipAcquire reports whether acquiring a host edge of weight w towards a
// node at network distance duy — with refund AcquirePrice(α, w(u,V)) when
// the move also deletes owned edge (u,V), 0 for a plain buy — provably
// cannot beat the running best improvement (or the strict-improvement
// tolerance, whichever is larger).
func (pb *moveBounds) skipAcquire(w, duy, refund, bestGain float64) bool {
	if math.IsInf(w, 1) {
		return true // unbuyable pair: the move's edge cost alone is +Inf
	}
	threshold := bestGain
	if pb.eps > threshold {
		threshold = pb.eps
	}
	threshold += pb.rules.AcquirePrice(pb.alpha, w) - refund - pb.slack
	// O(1) bounds first — the triangle pair bound and the metric excess
	// ceiling — then the sorted-row bound only when both fail.
	var pair float64
	if pb.tpos > 0 && duy > w {
		pair = pb.tpos * (duy - w) // duy may be +Inf (zero-demand pair): pair = +Inf, no prune
	}
	if pair <= threshold {
		return true
	}
	if pb.excessUB <= threshold {
		return true
	}
	return pb.gainUB(w) <= threshold
}

// BestBuy returns agent u's best single Buy move, mirroring the add-only
// equilibrium notion: the scan's buy leg over every vertex, unpruned.
// Buys the cost model rules infeasible are skipped.
func (s *State) BestBuy(u int) (best Move, cost float64, ok bool) {
	sc := s.newMoveScan(u)
	sc.buys(s.everyVertex())
	return sc.finish()
}

// IsAddOnlyEquilibrium reports whether no agent can strictly improve by
// buying a single edge (the paper's AE).
func (s *State) IsAddOnlyEquilibrium() bool {
	for u := 0; u < s.G.N(); u++ {
		if _, _, ok := s.BestBuy(u); ok {
			return false
		}
	}
	return true
}

// IsGreedyEquilibrium reports whether no agent can strictly improve by a
// single buy, delete or swap (the paper's GE, after Lenzner 2012).
func (s *State) IsGreedyEquilibrium() bool {
	for u := 0; u < s.G.N(); u++ {
		if _, _, ok := s.BestSingleMove(u); ok {
			return false
		}
	}
	return true
}

// GreedyApproxFactor returns the largest factor β by which any agent can
// reduce its cost with a single move: the state is a β-GE. Returns 1 when
// the state is a GE, +Inf if an agent with infinite cost can make its cost
// finite.
func (s *State) GreedyApproxFactor() float64 {
	worst := 1.0
	for u := 0; u < s.G.N(); u++ {
		cur := s.Cost(u)
		_, best, ok := s.BestSingleMove(u)
		if !ok {
			continue
		}
		if best <= 0 || math.IsInf(cur, 1) {
			return math.Inf(1)
		}
		if f := cur / best; f > worst {
			worst = f
		}
	}
	return worst
}
