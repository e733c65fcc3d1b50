package game

import (
	"math"
	"math/rand"
	"testing"

	"gncg/internal/gen"
	"gncg/internal/metric"
)

// lazySpaces returns one implicit space of each lazily-classifiable kind
// for the given seed, randomized but non-degenerate (random continuous
// weights cannot incidentally fall into a smaller class).
func lazySpaces(seed int64, n int) map[string]metric.Space {
	return map[string]metric.Space{
		"points-l2": gen.Points(seed, n, 2, 10, 2),
		"points-l1": gen.Points(seed+1000, n, 3, 10, 1),
		"tree":      gen.Tree(seed, n, 1.1, 6.3),
		"one-two":   gen.OneTwo(seed, n, 0.4),
		"unit":      metric.Unit{N: n},
	}
}

// densified returns a matrix-backed copy of the host: the dense reference
// every lazy answer is checked against.
func densified(t *testing.T, h *Host) *Host {
	t.Helper()
	d, err := HostFromMatrix(metric.Matrix(h.Space()))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMatrixDensifyAliasing pins the dense-view contract: Densify
// returns one shared memoized matrix, repeated calls alias it, Weight
// agrees with it, and matrix-backed hosts reuse (not copy) the
// matrix they were built from. The view is immutable by contract — code
// that needs a private mutable matrix must copy it.
func TestMatrixDensifyAliasing(t *testing.T) {
	h := NewHost(gen.Points(3, 9, 2, 10, 2))
	m := h.Densify()
	if m2 := h.Densify(); &m2[0][0] != &m[0][0] {
		t.Fatal("repeated Densify() calls must alias the same view")
	}
	for u := 0; u < h.N(); u++ {
		for v := 0; v < h.N(); v++ {
			if h.Weight(u, v) != m[u][v] {
				t.Fatalf("Weight(%d,%d)=%v disagrees with dense view %v", u, v, h.Weight(u, v), m[u][v])
			}
		}
	}
	// A matrix-backed host owns the matrix it was built from: its dense
	// view is that matrix, with no duplicate O(n²) copy.
	w := metric.Matrix(gen.OneTwo(5, 6, 0.5))
	mb, err := HostFromMatrix(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := mb.Densify(); &got[0][0] != &w[0][0] {
		t.Fatal("matrix-backed host must reuse the input matrix as its dense view")
	}
	// Independent hosts over the same space never share dense storage.
	sp := gen.Points(3, 5, 2, 10, 2)
	a, b := NewHost(sp).Densify(), NewHost(sp).Densify()
	if &a[0][0] == &b[0][0] {
		t.Fatal("distinct hosts share dense-view storage")
	}
}

// TestLazyDenseWeightClassEquivalence: a lazy host and its densified copy
// must agree exactly on Weight for every pair, on Classify, and on
// IsMetric, across randomized instances of every implicit space kind.
func TestLazyDenseWeightClassEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		n := 4 + int(seed)%5
		for kind, sp := range lazySpaces(seed, n) {
			lazy := NewHost(sp)
			dense := densified(t, lazy)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if lw, dw := lazy.Weight(u, v), dense.Weight(u, v); lw != dw {
						t.Fatalf("%s seed %d: Weight(%d,%d) lazy %v != dense %v", kind, seed, u, v, lw, dw)
					}
				}
			}
			if lc, dc := lazy.Classify(1e-9), dense.Classify(1e-9); lc != dc {
				t.Fatalf("%s seed %d: Classify lazy %v != dense %v", kind, seed, lc, dc)
			}
			if lm, dm := lazy.IsMetric(1e-9), dense.IsMetric(1e-9); lm != dm {
				t.Fatalf("%s seed %d: IsMetric lazy %v != dense %v", kind, seed, lm, dm)
			}
		}
	}
}

// TestLazyDenseOneInfEquivalence covers the sparse {1,∞} case, including
// the finite-pair iteration both hosts must enumerate identically.
func TestLazyDenseOneInfEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + int(seed)
		var ones [][2]int
		for v := 1; v < n; v++ {
			ones = append(ones, [2]int{rng.Intn(v), v})
		}
		oi, err := metric.NewOneInf(n, ones)
		if err != nil {
			t.Fatal(err)
		}
		lazy := NewHost(oi)
		dense := densified(t, lazy)
		if lc, dc := lazy.Classify(1e-9), dense.Classify(1e-9); lc != dc {
			t.Fatalf("seed %d: Classify lazy %v != dense %v", seed, lc, dc)
		}
		if lazy.IsMetric(1e-9) != dense.IsMetric(1e-9) {
			t.Fatalf("seed %d: IsMetric disagreement", seed)
		}
		var lp, dp [][2]int
		lazy.ForEachFinitePair(func(u, v int, w float64) { lp = append(lp, [2]int{u, v}) })
		dense.ForEachFinitePair(func(u, v int, w float64) { dp = append(dp, [2]int{u, v}) })
		if len(lp) != len(dp) {
			t.Fatalf("seed %d: finite pairs lazy %d != dense %d", seed, len(lp), len(dp))
		}
		for i := range lp {
			if lp[i] != dp[i] {
				t.Fatalf("seed %d: finite pair %d lazy %v != dense %v", seed, i, lp[i], dp[i])
			}
		}
	}
}

// TestLazyDenseCostEquivalence: every cost quantity of a random profile —
// per-agent edge, distance and total cost, social cost, and the best
// single move — must be bit-identical between a lazy host and its
// densified copy.
func TestLazyDenseCostEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n := 5 + int(seed)%4
		for kind, sp := range lazySpaces(seed, n) {
			rng := rand.New(rand.NewSource(seed * 31))
			prof := randomProfile(rng, n, 0.35)
			alpha := 0.4 + rng.Float64()*3
			ls := NewState(New(NewHost(sp), alpha), prof.Clone())
			ds := NewState(New(densified(t, NewHost(sp)), alpha), prof.Clone())
			for u := 0; u < n; u++ {
				if ls.EdgeCost(u) != ds.EdgeCost(u) {
					t.Fatalf("%s seed %d: EdgeCost(%d) lazy %v != dense %v", kind, seed, u, ls.EdgeCost(u), ds.EdgeCost(u))
				}
				if lv, dv := ls.DistCost(u), ds.DistCost(u); lv != dv && !(math.IsInf(lv, 1) && math.IsInf(dv, 1)) {
					t.Fatalf("%s seed %d: DistCost(%d) lazy %v != dense %v", kind, seed, u, lv, dv)
				}
				if lv, dv := ls.Cost(u), ds.Cost(u); lv != dv && !(math.IsInf(lv, 1) && math.IsInf(dv, 1)) {
					t.Fatalf("%s seed %d: Cost(%d) lazy %v != dense %v", kind, seed, u, lv, dv)
				}
				lm, lc, lok := ls.BestSingleMove(u)
				dm, dc, dok := ds.BestSingleMove(u)
				if lok != dok || lm != dm || (lc != dc && !(math.IsInf(lc, 1) && math.IsInf(dc, 1))) {
					t.Fatalf("%s seed %d: BestSingleMove(%d) lazy (%v,%v,%v) != dense (%v,%v,%v)",
						kind, seed, u, lm, lc, lok, dm, dc, dok)
				}
			}
			lsc, dsc := ls.SocialCost(), ds.SocialCost()
			if lsc != dsc && !(math.IsInf(lsc, 1) && math.IsInf(dsc, 1)) {
				t.Fatalf("%s seed %d: SocialCost lazy %v != dense %v", kind, seed, lsc, dsc)
			}
		}
	}
}

// TestNewHostNoQuadraticAllocation is the lazy-construction guarantee at
// the heart of the Host redesign: wrapping a 10k-point space as a host
// and a game allocates O(1) — no dense matrix, no per-row slices.
func TestNewHostNoQuadraticAllocation(t *testing.T) {
	pts := gen.Points(7, 10000, 2, 1000, 2)
	allocs := testing.AllocsPerRun(10, func() {
		h := NewHost(pts)
		g := New(h, 2)
		_ = g.Host.Weight(17, 4242)
	})
	// A dense host would need >= n row allocations (10k); lazy
	// construction is a handful of fixed-size objects.
	if allocs > 8 {
		t.Fatalf("NewHost+New on 10k points allocated %v objects per run, want O(1)", allocs)
	}
}
