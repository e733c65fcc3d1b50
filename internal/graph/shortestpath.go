package graph

import (
	"math"

	"gncg/internal/parallel"
)

// Dijkstra returns the shortest-path distances from src to every vertex.
// Unreachable vertices get +Inf. Weights must be non-negative, which the
// graph construction already enforces; +Inf edge weights are skipped.
func (g *Graph) Dijkstra(src int) []float64 {
	dist := make([]float64, g.n)
	g.DijkstraOverlay(dist, src, nil, nil)
	return dist
}

// DijkstraOverlay writes into dist (length N) the shortest-path distances
// from src in the overlay network g − removed + added, leaving g
// unmodified. As with RepairRowOverlay, every edited edge must be
// incident to src: the removed edges are masked out and the added ones
// seed the heap alongside src, which is all an edit at the source can
// change. It panics on an edit not incident to src.
func (g *Graph) DijkstraOverlay(dist []float64, src int, removed, added []Edge) {
	g.checkVertex(src)
	checkIncident(src, removed)
	checkIncident(src, added)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := newHeap(g.n)
	h.push(src, 0)
	seedAdded(h, dist, added, nil)
	g.drain(h, dist, removed, nil)
}

// drain is the one shortest-path relaxation loop: it settles the seeded
// heap h in priority order over g minus the masked pairs, lowering dist
// and calling mark (nil for none) on every entry it improves. Each
// settled value is the minimum over the same left-to-right float path
// sums whatever the seeds and their order, because float addition is
// monotone — which is why a repaired row is bit-identical to a fresh one.
// Masks are consulted only on improving edges.
func (g *Graph) drain(h *heap, dist []float64, masked []Edge, mark func(x int)) {
	for h.len() > 0 {
		x, dx := h.pop()
		if dx > dist[x] {
			continue
		}
		for _, e := range g.adj[x] {
			if math.IsInf(e.w, 1) {
				continue
			}
			if nd := dx + e.w; nd < dist[e.to] && !hides(masked, x, e.to) {
				dist[e.to] = nd
				h.push(e.to, nd)
				if mark != nil {
					mark(e.to)
				}
			}
		}
	}
}

// APSP returns the all-pairs shortest-path matrix, computed with one
// Dijkstra per source in parallel.
func (g *Graph) APSP() [][]float64 {
	return parallel.Map(g.n, func(src int) []float64 { return g.Dijkstra(src) })
}

// APSPAvoiding returns all-pairs shortest paths in the graph with vertex
// `avoid` (and all its incident edges) removed — the best-response
// solver's G∖u distances. Row and column `avoid` are +Inf (diagonal
// included).
func (g *Graph) APSPAvoiding(avoid int) [][]float64 {
	g.checkVertex(avoid)
	pruned := g.Clone()
	for _, e := range g.adj[avoid] {
		pruned.RemoveEdge(avoid, e.to)
	}
	m := pruned.APSP()
	m[avoid][avoid] = math.Inf(1)
	return m
}

// FloydWarshall computes all-pairs shortest paths with the cubic dynamic
// program. It exists as an independent oracle for testing the Dijkstra
// implementation and for dense instances where it is competitive.
func (g *Graph) FloydWarshall() [][]float64 {
	inf := math.Inf(1)
	d := make([][]float64, g.n)
	for i := range d {
		d[i] = make([]float64, g.n)
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else {
				d[i][j] = inf
			}
		}
	}
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if e.w < d[u][e.to] {
				d[u][e.to] = e.w
			}
		}
	}
	for k := 0; k < g.n; k++ {
		dk := d[k]
		for i := 0; i < g.n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			di := d[i]
			for j := 0; j < g.n; j++ {
				if nd := dik + dk[j]; nd < di[j] {
					di[j] = nd
				}
			}
		}
	}
	return d
}

// Connected reports whether the graph is connected (true for n <= 1).
// Edges with +Inf weight do not provide connectivity.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.to] && !math.IsInf(e.w, 1) {
				seen[e.to] = true
				count++
				stack = append(stack, e.to)
			}
		}
	}
	return count == g.n
}

// Diameter returns the maximum finite pairwise distance, and +Inf if the
// graph is disconnected. Returns 0 for n <= 1.
func (g *Graph) Diameter() float64 {
	if g.n <= 1 {
		return 0
	}
	rows := g.APSP()
	maxd := 0.0
	for i, row := range rows {
		for j, d := range row {
			if i == j {
				continue
			}
			if d > maxd {
				maxd = d
			}
		}
	}
	return maxd
}

// IsTree reports whether the graph is connected and acyclic.
func (g *Graph) IsTree() bool {
	return g.Connected() && g.M() == g.n-1
}

// SumDistances returns the sum over ordered pairs (u,v), u != v, of
// d(u,v); +Inf if disconnected.
func (g *Graph) SumDistances() float64 {
	rows := g.APSP()
	total := 0.0
	for i, row := range rows {
		for j, d := range row {
			if i == j {
				continue
			}
			total += d
		}
	}
	return total
}
