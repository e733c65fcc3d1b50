// Package spanner provides the k-spanner machinery behind the paper's
// structural lemmas: Lemma 1 (every add-only equilibrium is an
// (α+1)-spanner of the host), Lemma 2 (every social optimum is an
// (α/2+1)-spanner), Lemma 5 and Thm 5 (minimum-weight 3/2-spanners of 1-2
// hosts can be assigned an edge ownership that makes them Nash
// equilibria — the paper's NE existence proof for 1/2 ≤ α ≤ 1).
package spanner

import (
	"fmt"
	"math"

	"gncg/internal/game"
	"gncg/internal/graph"
	"gncg/internal/parallel"
)

// IsKSpanner reports whether the network is a k-spanner of the host:
// d_net(u,v) <= k * d_H(u,v) + eps for all pairs, where d_H is the
// shortest-path distance in the (complete) host graph.
func IsKSpanner(net *graph.Graph, h *game.Host, k, eps float64) bool {
	n := h.N()
	if net.N() != n {
		panic("spanner: network and host size mismatch")
	}
	hostG := hostGraph(h)
	dH := hostG.APSP()
	dG := net.APSP()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if math.IsInf(dH[u][v], 1) {
				continue // unbuyable pair constrains nothing
			}
			if dG[u][v] > k*dH[u][v]+eps {
				return false
			}
		}
	}
	return true
}

// Stretch returns the maximum over pairs of d_net(u,v)/d_H(u,v): the
// smallest k for which the network is a k-spanner. Pairs with d_H = 0 are
// skipped unless their network distance is positive, which yields +Inf.
func Stretch(net *graph.Graph, h *game.Host) float64 {
	n := h.N()
	dH := hostGraph(h).APSP()
	dG := net.APSP()
	worst := 1.0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if math.IsInf(dH[u][v], 1) {
				continue
			}
			if dH[u][v] == 0 {
				if dG[u][v] > 0 {
					return math.Inf(1)
				}
				continue
			}
			if r := dG[u][v] / dH[u][v]; r > worst {
				worst = r
			}
		}
	}
	return worst
}

func hostGraph(h *game.Host) *graph.Graph {
	g := graph.New(h.N())
	h.ForEachFinitePair(func(u, v int, w float64) {
		g.AddEdge(u, v, w)
	})
	return g
}

// MinWeight32SpannerOneTwo computes a minimum-weight 3/2-spanner of a
// 1-2 host exactly, by branch-and-bound over which 2-edges to include.
// By Lemma 5 such a spanner must contain every 1-edge, and a 2-edge pair
// (u,v) is satisfied iff d_G(u,v) <= 3. The search is exponential in the
// number of "uncovered" 2-edges, fine for the verification tier.
func MinWeight32SpannerOneTwo(h *game.Host) ([]graph.Edge, error) {
	n := h.N()
	base := graph.New(n)
	var twos [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			switch h.Weight(u, v) {
			case 1:
				base.AddEdge(u, v, 1)
			case 2:
				twos = append(twos, [2]int{u, v})
			default:
				return nil, fmt.Errorf("spanner: not a 1-2 host: w(%d,%d)=%v", u, v, h.Weight(u, v))
			}
		}
	}
	// A pair (u,v) at 1-edge distance <= 3 is already satisfied; the rest
	// ("demands") need help from added 2-edges.
	d0 := base.APSP()
	var demands [][2]int
	for _, p := range twos {
		if d0[p[0]][p[1]] > 3 {
			demands = append(demands, p)
		}
	}
	if len(demands) == 0 {
		return base.Edges(), nil
	}
	if len(twos) > 24 {
		return nil, fmt.Errorf("spanner: exact search over %d 2-edges is too large", len(twos))
	}
	satisfied := func(sel []bool) bool {
		g := base.Clone()
		for i, p := range twos {
			if sel[i] {
				g.AddEdge(p[0], p[1], 2)
			}
		}
		d := g.APSP()
		for _, p := range demands {
			if d[p[0]][p[1]] > 3 {
				return false
			}
		}
		return true
	}
	bestCount := math.MaxInt
	var bestSel []bool
	var rec func(i, count int, sel []bool)
	rec = func(i, count int, sel []bool) {
		if count >= bestCount {
			return
		}
		if i == len(twos) {
			if satisfied(sel) {
				bestCount = count
				bestSel = append([]bool(nil), sel...)
			}
			return
		}
		// Prefer sparse solutions: try excluding first.
		sel[i] = false
		rec(i+1, count, sel)
		sel[i] = true
		rec(i+1, count+1, sel)
		sel[i] = false
	}
	rec(0, 0, make([]bool, len(twos)))
	if bestSel == nil {
		return nil, fmt.Errorf("spanner: no 3/2-spanner exists (unreachable for 1-2 hosts)")
	}
	out := base.Clone()
	for i, p := range twos {
		if bestSel[i] {
			out.AddEdge(p[0], p[1], 2)
		}
	}
	return out.Edges(), nil
}

// FindNEOwnership searches for an edge-ownership assignment of the given
// edge set under which the resulting profile is a Nash equilibrium, using
// the supplied exact checker. It enumerates all 2^m orientations, in
// parallel, so it is only usable for small edge sets (m <= 20); Thm 5
// guarantees success for minimum-weight 3/2-spanners of 1-2 hosts with
// 1/2 <= α <= 1.
func FindNEOwnership(g *game.Game, edges []graph.Edge, isNash func(*game.State) bool) (game.Profile, bool) {
	m := len(edges)
	if m > 20 {
		panic(fmt.Sprintf("spanner: ownership search over 2^%d orientations", m))
	}
	total := 1 << m
	found := parallel.Map(total, func(mask int) *game.Profile {
		p := game.EmptyProfile(g.N())
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				p.Buy(e.U, e.V)
			} else {
				p.Buy(e.V, e.U)
			}
		}
		s := game.NewState(g, p)
		if isNash(s) {
			return &p
		}
		return nil
	})
	for _, p := range found {
		if p != nil {
			return *p, true
		}
	}
	return game.Profile{}, false
}
