package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randRepairGraph builds a random graph whose weight distribution
// stresses the repair paths: generic floats, exact ties (small integer
// weights), zero-weight edges and +Inf edges.
func randRepairGraph(rng *rand.Rand, n int, flavor string) *Graph {
	g := New(n)
	p := 0.25 + rng.Float64()*0.3
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() >= p {
				continue
			}
			g.AddEdge(u, v, randRepairWeight(rng, flavor))
		}
	}
	return g
}

// randRepairWeight draws one edge weight of the named flavor. "ulp"
// nudges a weight from {1, 2, 3} by up to three ulps either way, so
// direct edges and two-hop paths (1+2 against 3) tie to within float
// rounding.
func randRepairWeight(rng *rand.Rand, flavor string) float64 {
	switch flavor {
	case "generic":
		return rng.Float64() * 10
	case "ties":
		return float64(rng.Intn(3)) // 0, 1 or 2: heavy tie pressure
	case "mixed":
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Inf(1)
		default:
			return float64(1+rng.Intn(4)) / 2
		}
	case "ulp":
		w, dir := float64(1+rng.Intn(3)), math.Inf(1)
		k := rng.Intn(7) - 3
		if k < 0 {
			dir, k = math.Inf(-1), -k
		}
		for ; k > 0; k-- {
			w = math.Nextafter(w, dir)
		}
		return w
	}
	panic("unknown repair flavor " + flavor)
}

func rowsEqualBitwise(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	for i := range want {
		gi, wi := got[i], want[i]
		if gi != wi && !(math.IsInf(gi, 1) && math.IsInf(wi, 1)) {
			t.Fatalf("%s: dist[%d] = %v, fresh Dijkstra = %v", ctx, i, gi, wi)
		}
	}
}

// TestRepairRowMatchesFreshDijkstra: after random interleaved edge
// insertions and deletions, rows repaired incrementally for every source
// must be bit-equal to fresh Dijkstra on the mutated graph.
func TestRepairRowMatchesFreshDijkstra(t *testing.T) {
	for _, flavor := range []string{"generic", "ties", "mixed"} {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 6 + rng.Intn(10)
				g := randRepairGraph(rng, n, flavor)
				rows := make([][]float64, n)
				for src := 0; src < n; src++ {
					rows[src] = g.Dijkstra(src)
				}
				for step := 0; step < 60; step++ {
					u := rng.Intn(n)
					v := rng.Intn(n)
					if u == v {
						continue
					}
					if g.HasEdge(u, v) {
						w := g.EdgeWeight(u, v)
						g.RemoveEdge(u, v)
						for src := 0; src < n; src++ {
							if !g.RepairRowBatch(rows[src], src, []Edge{{U: u, V: v, W: w}}, nil, n+1, nil) {
								t.Fatalf("seed %d step %d: budget n+1 exceeded on an n-vertex graph", seed, step)
							}
						}
					} else {
						var w float64
						switch flavor {
						case "generic":
							w = rng.Float64() * 10
						case "ties":
							w = float64(rng.Intn(3))
						case "mixed":
							w = []float64{0, math.Inf(1), 1, 1.5}[rng.Intn(4)]
						}
						g.AddEdge(u, v, w)
						for src := 0; src < n; src++ {
							g.RepairRowBatch(rows[src], src, nil, []Edge{{U: u, V: v, W: w}}, n+1, nil)
						}
					}
					for src := 0; src < n; src++ {
						rowsEqualBitwise(t, rows[src], g.Dijkstra(src), flavor)
					}
				}
			}
		})
	}
}

// TestRepairRowRemoveZeroWeightCycleGrounding pins the zero-weight
// pathology the strict-support rule exists for: two zero-weight cycle
// mates that "support" each other but are grounded only through the
// deleted edge must both be detected as affected (and go to +Inf).
func TestRepairRowRemoveZeroWeightCycleGrounding(t *testing.T) {
	// s --5-- v --0-- u --0-- a, plus nothing else: removing (v,u)
	// disconnects {u,a}, even though u and a keep tight "supports"
	// via each other.
	g := New(4)
	s, v, u, a := 0, 1, 2, 3
	g.AddEdge(s, v, 5)
	g.AddEdge(v, u, 0)
	g.AddEdge(u, a, 0)
	dist := g.Dijkstra(s)
	g.RemoveEdge(v, u)
	if !g.RepairRowBatch(dist, s, []Edge{{U: v, V: u, W: 0}}, nil, 64, nil) {
		t.Fatal("repair unexpectedly exceeded budget")
	}
	rowsEqualBitwise(t, dist, g.Dijkstra(s), "zero-weight cycle")
	if !math.IsInf(dist[u], 1) || !math.IsInf(dist[a], 1) {
		t.Fatalf("u, a should be unreachable, got %v, %v", dist[u], dist[a])
	}
}

// TestRepairRowRemoveBudgetFallback: when the affected set exceeds the
// budget the row must be left exactly as it was.
func TestRepairRowRemoveBudgetFallback(t *testing.T) {
	// A long path from src: deleting the first edge affects every other
	// vertex, so any budget below n-1 must refuse and leave the row alone.
	n := 16
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	dist := g.Dijkstra(0)
	before := append([]float64(nil), dist...)
	g.RemoveEdge(0, 1)
	removed := []Edge{{U: 0, V: 1, W: 1}}
	if g.RepairRowBatch(dist, 0, removed, nil, 3, nil) {
		t.Fatal("expected budget refusal")
	}
	rowsEqualBitwise(t, dist, before, "refused repair must not touch the row")
	if !g.RepairRowBatch(dist, 0, removed, nil, n, nil) {
		t.Fatal("budget n should suffice")
	}
	rowsEqualBitwise(t, dist, g.Dijkstra(0), "after retry with larger budget")
}

// TestRepairRowAddChangedCountsVertices: the marked set is exactly the
// distinct changed entries — a vertex the wavefront improves twice
// (first via a far frontier vertex, then via a closer one) is marked
// twice but counts once.
func TestRepairRowAddChangedCountsVertices(t *testing.T) {
	// Path 0-1-2-3-4 (unit weights) with (4,5) of weight 10 and a side
	// edge (3,5) of weight 1. Inserting (0,4) of weight 1 improves 4
	// (4→1), 3 (3→2) and 5 twice (4→11 via vertex 4, then →3 via 3).
	g := New(6)
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(i, i+1, 1)
	}
	g.AddEdge(4, 5, 10)
	g.AddEdge(3, 5, 1)
	dist := g.Dijkstra(0)
	g.AddEdge(0, 4, 1)
	changed := map[int]bool{}
	g.RepairRowBatch(dist, 0, nil, []Edge{{U: 0, V: 4, W: 1}}, 6, func(x int) { changed[x] = true })
	if c := len(changed); c != 3 {
		t.Fatalf("changed = %d, want 3 (vertices 3, 4, 5)", c)
	}
	rowsEqualBitwise(t, dist, g.Dijkstra(0), "double-improvement insert")
}

// TestRepairRowAddInfEdgeIsNoop: inserting an unbuyable (+Inf) edge never
// changes a distance.
func TestRepairRowAddInfEdgeIsNoop(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	dist := g.Dijkstra(0)
	g.AddEdge(1, 2, math.Inf(1))
	marks := 0
	g.RepairRowBatch(dist, 0, nil, []Edge{{U: 1, V: 2, W: math.Inf(1)}}, 3, func(int) { marks++ })
	if c := marks; c != 0 {
		t.Fatalf("inf insertion changed %d entries", c)
	}
	rowsEqualBitwise(t, dist, g.Dijkstra(0), "inf add")
}

// TestRepairRowBatchMatchesFreshDijkstra is the batch-repair property
// behind the game cache's lazy delta replay: rows repaired across a net
// edge diff (several removals and insertions collapsed into one edit)
// must be bit-equal to fresh Dijkstra on the final graph, for every
// source and for every weight flavor.
func TestRepairRowBatchMatchesFreshDijkstra(t *testing.T) {
	for _, flavor := range []string{"generic", "ties", "mixed"} {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(500 + seed))
				n := 6 + rng.Intn(10)
				g := randRepairGraph(rng, n, flavor)
				rows := make([][]float64, n)
				for src := 0; src < n; src++ {
					rows[src] = g.Dijkstra(src)
				}
				for step := 0; step < 25; step++ {
					// Build a random net diff of 1..4 edge flips on
					// distinct pairs, mutating g accordingly.
					var removed, added []Edge
					flips := 1 + rng.Intn(4)
					seen := map[[2]int]bool{}
					for k := 0; k < flips; k++ {
						u, v := rng.Intn(n), rng.Intn(n)
						if u == v || seen[pairKey(u, v)] {
							continue
						}
						seen[pairKey(u, v)] = true
						if g.HasEdge(u, v) {
							w := g.EdgeWeight(u, v)
							g.RemoveEdge(u, v)
							removed = append(removed, Edge{U: u, V: v, W: w})
						} else {
							var w float64
							switch flavor {
							case "generic":
								w = rng.Float64() * 10
							case "ties":
								w = float64(rng.Intn(3))
							case "mixed":
								w = []float64{0, math.Inf(1), 1, 1.5}[rng.Intn(4)]
							}
							g.AddEdge(u, v, w)
							added = append(added, Edge{U: u, V: v, W: w})
						}
					}
					for src := 0; src < n; src++ {
						marked := map[int]bool{}
						before := append([]float64(nil), rows[src]...)
						if !g.RepairRowBatch(rows[src], src, removed, added, n+1, func(x int) { marked[x] = true }) {
							t.Fatalf("seed %d step %d: budget n+1 exceeded on an n-vertex graph", seed, step)
						}
						want := g.Dijkstra(src)
						rowsEqualBitwise(t, rows[src], want, flavor+"/batch")
						for x := range want {
							same := rows[src][x] == before[x] ||
								(math.IsInf(rows[src][x], 1) && math.IsInf(before[x], 1))
							if !same && !marked[x] {
								t.Fatalf("seed %d step %d src %d: entry %d changed (%v -> %v) without mark",
									seed, step, src, x, before[x], rows[src][x])
							}
						}
					}
				}
			}
		})
	}
}

// TestRepairRowBatchBudgetRefusalUntouched: a batch whose removal phase
// exceeds budget must leave the row exactly as it was, including when
// insertions are batched alongside.
func TestRepairRowBatchBudgetRefusalUntouched(t *testing.T) {
	n := 16
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	dist := g.Dijkstra(0)
	before := append([]float64(nil), dist...)
	g.RemoveEdge(0, 1)
	g.AddEdge(0, n-1, 1)
	removed := []Edge{{U: 0, V: 1, W: 1}}
	added := []Edge{{U: 0, V: n - 1, W: 1}}
	if g.RepairRowBatch(dist, 0, removed, added, 3, nil) {
		t.Fatal("expected budget refusal")
	}
	rowsEqualBitwise(t, dist, before, "refused batch must not touch the row")
	if !g.RepairRowBatch(dist, 0, removed, added, n, nil) {
		t.Fatal("budget n should suffice")
	}
	rowsEqualBitwise(t, dist, g.Dijkstra(0), "after batch retry with larger budget")
}

func pairKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// TestRepairRowOverlayMatchesAppliedEdit is the read-only property behind
// the game's move evaluation: a source-incident edit (one or two flips at
// src, as a buy, delete or swap produces) repaired on a copy of src's row
// against the unmodified graph, or computed by DijkstraOverlay, must be
// bit-equal to a fresh Dijkstra on the graph with the edit applied —
// and the graph itself must not change.
func TestRepairRowOverlayMatchesAppliedEdit(t *testing.T) {
	for _, flavor := range []string{"generic", "ties", "mixed"} {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(900 + seed))
				n := 6 + rng.Intn(10)
				g := randRepairGraph(rng, n, flavor)
				before := g.Edges()
				for step := 0; step < 40; step++ {
					src := rng.Intn(n)
					var removed, added []Edge
					applied := g.Clone()
					for k, flips := 0, 1+rng.Intn(2); k < flips; k++ {
						v := rng.Intn(n)
						if v == src || applied.HasEdge(src, v) != g.HasEdge(src, v) {
							continue
						}
						if g.HasEdge(src, v) {
							removed = append(removed, Edge{U: src, V: v, W: g.EdgeWeight(src, v)})
							applied.RemoveEdge(src, v)
						} else {
							w := []float64{0, math.Inf(1), 1, 1.5, rng.Float64() * 10}[rng.Intn(5)]
							added = append(added, Edge{U: v, V: src, W: w})
							applied.AddEdge(src, v, w)
						}
					}
					want := applied.Dijkstra(src)
					row := g.Dijkstra(src)
					orig := append([]float64(nil), row...)
					marked := map[int]bool{}
					if !g.RepairRowOverlay(row, src, removed, added, n+1, func(x int) { marked[x] = true }) {
						t.Fatalf("seed %d step %d: budget n+1 exceeded on an n-vertex graph", seed, step)
					}
					rowsEqualBitwise(t, row, want, flavor+"/overlay repair")
					for x := range want {
						if row[x] != orig[x] && !(math.IsInf(row[x], 1) && math.IsInf(orig[x], 1)) && !marked[x] {
							t.Fatalf("seed %d step %d: entry %d changed without mark", seed, step, x)
						}
					}
					fresh := make([]float64, n)
					g.DijkstraOverlay(fresh, src, removed, added)
					rowsEqualBitwise(t, fresh, want, flavor+"/overlay Dijkstra")
				}
				after := g.Edges()
				if len(after) != len(before) {
					t.Fatalf("seed %d: overlay evaluation changed the graph (%d -> %d edges)", seed, len(before), len(after))
				}
				for i := range before {
					if after[i] != before[i] {
						t.Fatalf("seed %d: overlay evaluation changed edge %v -> %v", seed, before[i], after[i])
					}
				}
			}
		})
	}
}

// TestRepairRowOverlayRefusalAndContract: an overlay removal over budget
// leaves the row untouched, and an edit away from the source panics.
func TestRepairRowOverlayRefusalAndContract(t *testing.T) {
	n := 16
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	dist := g.Dijkstra(0)
	before := append([]float64(nil), dist...)
	removed := []Edge{{U: 0, V: 1, W: 1}}
	added := []Edge{{U: 0, V: n - 1, W: 1}}
	if g.RepairRowOverlay(dist, 0, removed, added, 3, func(int) { t.Fatal("mark fired on refusal") }) {
		t.Fatal("expected budget refusal")
	}
	rowsEqualBitwise(t, dist, before, "refused overlay must not touch the row")
	if !g.RepairRowOverlay(dist, 0, removed, added, n, nil) {
		t.Fatal("budget n should suffice")
	}
	g.RemoveEdge(0, 1)
	g.AddEdge(0, n-1, 1)
	rowsEqualBitwise(t, dist, g.Dijkstra(0), "overlay retry with larger budget")
	defer func() {
		if recover() == nil {
			t.Fatal("an edit away from the source must panic")
		}
	}()
	g.RepairRowOverlay(dist, 0, []Edge{{U: 2, V: 3, W: 1}}, nil, n, nil)
}
