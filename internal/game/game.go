// Package game implements the Generalized Network Creation Game (GNCG) of
// Bilò, Friedrich, Lenzner and Melnichenko (SPAA 2019): the paper's core
// contribution.
//
// A game is played on a complete weighted host graph H on n nodes. Every
// node is a selfish agent; agent u's strategy S_u ⊆ V∖{u} is the set of
// nodes u buys an edge towards, at price α·w(u,v) per edge. The strategy
// profile s determines the created network G(s) containing edge (u,v) iff
// v ∈ S_u or u ∈ S_v. Agent u's cost is
//
//	cost(u, G(s)) = α·w(u,S_u) + Σ_v d_{G(s)}(u,v),
//
// and the social cost is the sum over all agents. The package provides the
// model types (Host, Game, Profile, State), exact cost accounting, single
// edge moves (buy / delete / swap) and the equilibrium notions used
// throughout the paper: add-only equilibrium (AE), greedy equilibrium
// (GE), and β-approximate variants. Exact Nash checks additionally need a
// best-response oracle and live in package bestresponse.
package game

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"gncg/internal/metric"
)

// DefaultEps is the strict-improvement tolerance: a move improves iff it
// lowers the mover's cost by more than this.
const DefaultEps = 1e-9

// Host is a complete weighted host graph: symmetric non-negative weights
// with zero diagonal, backed directly by a metric.Space. Weights are
// computed lazily — constructing a host is O(1) beyond the space itself,
// so implicit spaces (points in R^d, tree metrics, unit/{1,2}/{1,∞}
// hosts) support 10k+ agents in O(n) memory. +Inf weights encode
// unbuyable pairs (1-∞–GNCG).
//
// A dense view exists only on explicit request (Densify / Matrix) and is
// memoized on the host. Hosts are safe for concurrent reads.
type Host struct {
	n     int
	space metric.Space

	denseOnce sync.Once
	dense     atomic.Pointer[[][]float64]
}

// NewHost wraps a metric.Space as a host graph. The space is used as-is
// (not copied) and must not be mutated afterwards; no dense matrix is
// materialized.
func NewHost(s metric.Space) *Host {
	return &Host{n: s.Size(), space: s}
}

// HostFromMatrix wraps an explicit weight matrix, validating it through
// metric.FromMatrix. The host takes ownership of the matrix — callers
// must not mutate it afterwards (the matrix doubles as the host's dense
// view).
func HostFromMatrix(w [][]float64) (*Host, error) {
	s, err := metric.FromMatrix(w)
	if err != nil {
		return nil, err
	}
	return NewHost(s), nil
}

// N returns the number of agents.
func (h *Host) N() int { return h.n }

// Space returns the backing metric.Space.
func (h *Host) Space() metric.Space { return h.space }

// Weight returns w(u,v). It reads the memoized dense view when one
// exists and otherwise computes the distance from the backing space.
func (h *Host) Weight(u, v int) float64 {
	if m := h.dense.Load(); m != nil {
		return (*m)[u][v]
	}
	return h.space.Dist(u, v)
}

// Densify materializes and memoizes the dense weight matrix: O(n²) memory
// and construction time on first call, O(1) afterwards. Spaces that
// already hold a dense matrix (matrix-backed hosts) are reused without
// copying. The returned matrix is the host's single shared dense view —
// callers must treat it as immutable.
func (h *Host) Densify() [][]float64 {
	h.denseOnce.Do(func() {
		var m [][]float64
		if d, ok := h.space.(metric.Dense); ok {
			m = d.DenseMatrix()
		} else {
			m = metric.Matrix(h.space)
		}
		h.dense.Store(&m)
	})
	return *h.dense.Load()
}

// Classify places the host in the paper's model hierarchy. Spaces with
// the metric.Classifier capability (points, trees, unit, {1,2}, {1,∞})
// answer structurally in O(1) without densification; matrix-backed hosts
// fall back to the dense validator over the memoized view.
func (h *Host) Classify(eps float64) metric.Class {
	if c, ok := h.space.(metric.Classifier); ok {
		return c.Class(eps)
	}
	return metric.Classify(h.Densify(), eps)
}

// IsMetric reports whether the host satisfies the triangle inequality,
// via the metric.Classifier capability in O(1) when the space has one and
// the dense O(n³) validator otherwise.
func (h *Host) IsMetric(eps float64) bool {
	if c, ok := h.space.(metric.Classifier); ok {
		return c.Metric(eps)
	}
	return metric.IsMetric(h.Densify(), eps)
}

// ForEachFinitePair calls fn for every unordered pair u < v with finite
// weight, in ascending (u,v) order: the buyable-pair iteration used by
// MST/optimum/spanner code. Sparse spaces ({1,∞} hosts) enumerate only
// their finite pairs; dense and implicit spaces are scanned without
// allocation.
func (h *Host) ForEachFinitePair(fn func(u, v int, w float64)) {
	if m := h.dense.Load(); m != nil {
		for u := 0; u < h.n; u++ {
			row := (*m)[u]
			for v := u + 1; v < h.n; v++ {
				if w := row[v]; !math.IsInf(w, 1) {
					fn(u, v, w)
				}
			}
		}
		return
	}
	metric.ForEachFinitePair(h.space, fn)
}

// Game couples a host graph with the edge-price parameter α > 0 and the
// strict-improvement tolerance Eps.
type Game struct {
	Host  *Host
	Alpha float64
	Eps   float64

	// traffic holds optional per-pair demand weights (nil = uniform);
	// see traffic.go. costEpoch counts SetTraffic calls so cached
	// distance-sum aggregates (aggregate.go) detect changes to the
	// per-pair cost terms and rebuild instead of serving stale sums.
	traffic   [][]float64
	costEpoch uint64

	// rules is the pluggable cost model (rules.go); nil means the
	// paper's SumRules. Read through Rules(), set by NewWithRules.
	rules Rules

	// floorSums lazily caches the per-agent traffic-weighted host floor
	// Σ_x t(u,x)·w(u,x) behind the excess certificate (candidates.go).
	// The sums are strategy-independent; floorEpoch tracks costEpoch so
	// SetTraffic invalidates them. Guarded by floorMu — states and
	// verifier workers share the Game across goroutines.
	floorMu    sync.Mutex
	floorEpoch uint64
	floorSums  []float64
	floorDone  []bool
}

// New returns a game on host h with parameter alpha and the default
// tolerance.
func New(h *Host, alpha float64) *Game {
	if alpha < 0 {
		panic(fmt.Sprintf("game: negative alpha %v", alpha))
	}
	return &Game{Host: h, Alpha: alpha, Eps: DefaultEps}
}

// N returns the number of agents.
func (g *Game) N() int { return g.Host.N() }

// Improves reports whether newCost is a strict improvement over oldCost
// under the game's tolerance. Any finite cost strictly improves on +Inf.
func (g *Game) Improves(newCost, oldCost float64) bool {
	if math.IsInf(oldCost, 1) {
		return !math.IsInf(newCost, 1)
	}
	return newCost < oldCost-g.Eps
}
