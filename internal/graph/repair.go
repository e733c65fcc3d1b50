package graph

import (
	"math"
	"sync"
)

// Dynamic single-source shortest-path repair, after Ramalingam & Reps
// (1996): when a few edges change, a previously computed Dijkstra row can
// be repaired by touching only the vertices whose distance actually
// changed, instead of being recomputed from scratch. This is the
// primitive behind the game engine's distance cache (lazy replay of a
// delta log, RepairRowBatch) and its read-only move evaluation (a single
// buy/delete/swap perturbs one or two edges at the mover, repaired on a
// copy of the mover's row against an overlay of the unmodified network,
// RepairRowOverlay).
//
// Both entry points keep the row bit-identical to what a fresh Dijkstra
// on the edited graph would produce: repaired values are minima over
// exactly the same left-to-right float path sums that Dijkstra's dynamic
// program explores, and untouched values are proven unchanged (an edge
// insertion only relaxes, and a deletion can only affect vertices whose
// every tight predecessor chain crossed the deleted edge).
//
// The deletion side is output-sensitive but not worst-case better than
// Dijkstra: on graphs with many equal-length ties the potentially-affected
// set can balloon, so removal repair takes a budget and reports failure
// once the set exceeds it, leaving the row untouched for the caller to
// recompute (or discard). DefaultRepairBudget is the threshold used by the
// game's distance cache.

// DefaultRepairBudget returns the affected-set size beyond which deletion
// repair falls back to a full recomputation, for an n-vertex graph. Small
// affected sets are the common case for single-edge game moves; past
// roughly n/4 the repair's bookkeeping stops paying for itself.
func DefaultRepairBudget(n int) int { return 16 + n/4 }

// repairAddBatch repairs dist across the simultaneous insertion of the
// added edges: every improvement any new edge enables seeds one shared
// wavefront, which drain then relaxes in priority order exactly as
// Dijkstra would. The wavefront walks g's adjacency, so g must contain
// every edge the edited network relies on beyond the added ones
// (RepairRowBatch: g is the final graph; RepairRowOverlay: the added
// edges are absent from g but incident to the source, which no
// relaxation ever improves, so they are only needed as seeds).
func (g *Graph) repairAddBatch(dist []float64, added []Edge, mark func(x int)) {
	h := wavefrontPool.Get().(*heap)
	defer wavefrontPool.Put(h)
	seedAdded(h, dist, added, mark)
	g.drain(h, dist, nil, mark)
}

// seedAdded pushes onto h every endpoint whose distance one of the added
// edges improves, lowering dist and calling mark (nil for none) on it.
// Edges with +Inf weight improve nothing.
func seedAdded(h *heap, dist []float64, added []Edge, mark func(x int)) {
	for _, e := range added {
		if math.IsInf(e.W, 1) {
			continue
		}
		for _, p := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
			if nd := addF(dist[p[0]], e.W); nd < dist[p[1]] {
				dist[p[1]] = nd
				h.push(p[1], nd)
				if mark != nil {
					mark(p[1])
				}
			}
		}
	}
}

// wavefrontPool recycles the insertion wavefront's heap: the repair runs
// once per evaluated move, and two fresh slices per call were the largest
// cost left in a read-only buy evaluation. Every wavefront drains its
// heap, so pooled heaps come back empty.
var wavefrontPool = sync.Pool{New: func() any { return newHeap(8) }}

// addF adds a finite weight to a possibly-infinite distance without
// producing NaN (Inf + w = Inf, which never relaxes anything).
func addF(d, w float64) float64 {
	if math.IsInf(d, 1) {
		return d
	}
	return d + w
}

// hides reports whether the pair (x,y) is one of the masked edges. Masks
// are net edge diffs — a handful of pairs — and the repairs consult them
// only on tight or improving edges, so a linear scan beats a map.
func hides(masked []Edge, x, y int) bool {
	for _, e := range masked {
		if (e.U == x && e.V == y) || (e.U == y && e.V == x) {
			return true
		}
	}
	return false
}

// RepairRowBatch repairs the shortest-path row dist from src across an
// arbitrary net edge difference applied to the graph: dist must be valid
// for g with the `added` edges absent and the `removed` edges present
// (weights as recorded); g must already be in its final state. The same
// (u,v) pair must not appear in both lists — callers collapse histories
// to a net diff first, which is what makes batch replay of a delta log
// sound: repairing one logged delta at a time against the final adjacency
// would violate each repair's precondition, while the net diff is a
// single well-defined edit of the row's own network.
//
// The repair runs in two phases, each of which preserves bit-equality
// with a fresh Dijkstra: first the removals are repaired against the
// pre-addition graph (g with the added edges masked out), producing the
// row of the intermediate network; then all additions seed one shared
// insertion wavefront over the full graph. mark (nil for none) fires,
// possibly repeatedly, for every entry that may have changed. If the
// removal phase's affected set exceeds budget, dist is left untouched,
// mark never fires and ok is false: the caller should recompute the row
// from scratch.
func (g *Graph) RepairRowBatch(dist []float64, src int, removed, added []Edge, budget int, mark func(x int)) (ok bool) {
	return g.repairRow(dist, src, removed, added, added, budget, mark)
}

// RepairRowOverlay is RepairRowBatch for an edit that has not been
// applied: g is left unmodified, dist must be valid for g, and on success
// it is valid for the overlay network g − removed + added. Every edited
// edge must be incident to src — exactly the shape of one agent's
// strategy change evaluated from that agent's own row — which is what
// lets the repair run on g itself: the removed edges are masked out of
// the removal phase, and the insertion wavefront needs the added edges
// only as seeds, since no relaxation can improve the source's own
// distance of 0. The repaired row is bit-identical to applying the edit
// and calling RepairRowBatch: both equal a fresh Dijkstra on the edited
// graph. It panics on an edit not incident to src.
func (g *Graph) RepairRowOverlay(dist []float64, src int, removed, added []Edge, budget int, mark func(x int)) (ok bool) {
	checkIncident(src, removed)
	checkIncident(src, added)
	return g.repairRow(dist, src, removed, added, removed, budget, mark)
}

// repairRow runs the two repair phases: the removals against g with the
// masked pairs hidden, then one insertion wavefront for the additions.
func (g *Graph) repairRow(dist []float64, src int, removed, added, masked []Edge, budget int, mark func(x int)) bool {
	if len(removed) > 0 && !g.repairRemoveBatch(dist, src, removed, masked, budget, mark) {
		return false
	}
	if len(added) > 0 {
		g.repairAddBatch(dist, added, mark)
	}
	return true
}

func checkIncident(src int, edges []Edge) {
	for _, e := range edges {
		if e.U != src && e.V != src {
			panic("graph: overlay edit not incident to the source")
		}
	}
}

// repairRemoveBatch repairs dist across the simultaneous deletion of the
// removed edges. The graph it repairs against is g minus the pairs in
// masked: for RepairRowBatch the edges inserted after the row's network
// state (g no longer contains the removed edges), for RepairRowOverlay
// the removed edges themselves (g still contains them). Either way the
// removal phase sees exactly the row's own graph minus the removals.
//
// Only vertices whose every shortest path crossed a removed edge can
// change; the repair finds that set by walking tight edges
// (dist[y] == dist[x] + w(x,y)) from every unsupported far endpoint, then
// recomputes exactly those vertices with a boundary-seeded Dijkstra.
// If the potentially-affected set exceeds budget, the row is left exactly
// as it was and ok is false; mark fires only on success, once per
// recomputed vertex.
func (g *Graph) repairRemoveBatch(dist []float64, src int, removed, masked []Edge, budget int, mark func(x int)) (ok bool) {
	// Roots: endpoints whose distance was supported through a deleted
	// edge and have no alternative tight support left. If every endpoint
	// keeps a support, no distance in the row can change. The source is
	// its own support and is never a root.
	var roots []int
	isRoot := map[int]bool{}
	for _, re := range removed {
		if math.IsInf(re.W, 1) {
			continue // an unbuyable edge never carried a shortest path
		}
		for _, e := range [2][2]int{{re.U, re.V}, {re.V, re.U}} {
			far, near := e[0], e[1]
			if far == src || isRoot[far] || dist[far] != addF(dist[near], re.W) || math.IsInf(dist[far], 1) {
				continue
			}
			if !g.hasStrictSupport(dist, far, masked) {
				isRoot[far] = true
				roots = append(roots, far)
			}
		}
	}
	if len(roots) == 0 {
		return true
	}

	// Phase 1: the potentially-affected set — everything reachable from a
	// root via tight edges in the remaining graph. This overestimates the
	// truly-affected set (a vertex with an untouched alternative support
	// is collected anyway) but never misses a vertex whose distance must
	// change, and phase 2 recomputes members from scratch either way.
	affected := map[int]bool{}
	queue := make([]int, 0, len(roots))
	for _, r := range roots {
		if !affected[r] {
			affected[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		dx := dist[x]
		for _, e := range g.adj[x] {
			if math.IsInf(e.w, 1) || affected[e.to] || e.to == src {
				continue
			}
			if dist[e.to] == dx+e.w && !hides(masked, x, e.to) {
				if len(affected) >= budget {
					return false
				}
				affected[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}

	// Phase 2: recompute the affected vertices. Seed each from its best
	// unaffected neighbor (whose distance is proven unchanged), then drain
	// the wavefront; relaxations into unaffected vertices can never win
	// (their value is already the minimum), and every vertex that can
	// improve is already marked.
	if mark != nil {
		for x := range affected {
			mark(x)
		}
	}
	h := newHeap(len(affected))
	for x := range affected {
		dist[x] = math.Inf(1)
	}
	for x := range affected {
		best := math.Inf(1)
		for _, e := range g.adj[x] {
			if math.IsInf(e.w, 1) || affected[e.to] {
				continue
			}
			if nd := addF(dist[e.to], e.w); nd < best && !hides(masked, x, e.to) {
				best = nd
			}
		}
		if !math.IsInf(best, 1) {
			dist[x] = best
			h.push(x, best)
		}
	}
	g.drain(h, dist, masked, nil)
	return true
}

// hasStrictSupport reports whether some remaining edge still certifies
// dist[x] from strictly below: a neighbor z with dist[z] < dist[x] and
// dist[z] + w(z,x) == dist[x]. Equal-distance supports (zero-weight ties)
// are deliberately not counted — two zero-weight cycle mates can "support"
// each other while both are grounded only through the deleted edge, so an
// equal-distance support proves nothing. Treating such endpoints as roots
// is conservative: phase 2 recomputes them and lands on the same values
// whenever the tie was genuine. Masked edges are not remaining edges and
// never count.
func (g *Graph) hasStrictSupport(dist []float64, x int, masked []Edge) bool {
	dx := dist[x]
	for _, e := range g.adj[x] {
		if math.IsInf(e.w, 1) || dist[e.to] >= dx {
			continue
		}
		if dist[e.to]+e.w == dx && !hides(masked, x, e.to) {
			return true
		}
	}
	return false
}
