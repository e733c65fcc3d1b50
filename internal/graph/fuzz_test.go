package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fuzzRepairFlavors are the weight flavors FuzzRepairRow draws from.
var fuzzRepairFlavors = []string{"generic", "ties", "mixed", "ulp"}

// FuzzRepairRow holds every incremental shortest-path entry point to a
// fresh Dijkstra on an explicitly edited Clone, bit for bit. On a random
// graph of the chosen flavor it draws:
//   - a net diff of up to four flips on distinct pairs: RepairRowBatch
//     on every source's row;
//   - a source-incident edit of one or two flips: RepairRowOverlay and
//     DijkstraOverlay against the unmodified graph, which must not
//     change;
//   - a vertex to avoid: APSPAvoiding against FloydWarshall on the graph
//     with that vertex's edges deleted.
//
// A repair may refuse when its removal phase exceeds budget, but then
// the row must be untouched and mark must not have fired. The committed
// seeds under testdata/fuzz/FuzzRepairRow replay in plain go test.
func FuzzRepairRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, flavor, size, budget uint8) {
		fl := fuzzRepairFlavors[int(flavor)%len(fuzzRepairFlavors)]
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%15
		bud := 1 + int(budget)%(n+1)
		g := randRepairGraph(rng, n, fl)
		before := g.Edges()

		edited := g.Clone()
		var removed, added []Edge
		seen := map[[2]int]bool{}
		for k, flips := 0, 1+rng.Intn(4); k < flips; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || seen[pairKey(u, v)] {
				continue
			}
			seen[pairKey(u, v)] = true
			removed, added = flip(edited, u, v, rng, fl, removed, added)
		}
		for src := 0; src < n; src++ {
			row := g.Dijkstra(src)
			checkRepair(t, "batch", row, edited.Dijkstra(src), func(mark func(int)) bool {
				return edited.RepairRowBatch(row, src, removed, added, bud, mark)
			})
		}

		src := rng.Intn(n)
		applied := g.Clone()
		removed, added = nil, nil
		for k, flips := 0, 1+rng.Intn(2); k < flips; k++ {
			v := rng.Intn(n)
			if v == src || applied.HasEdge(src, v) != g.HasEdge(src, v) {
				continue
			}
			removed, added = flip(applied, src, v, rng, fl, removed, added)
		}
		want := applied.Dijkstra(src)
		row := g.Dijkstra(src)
		checkRepair(t, "overlay", row, want, func(mark func(int)) bool {
			return g.RepairRowOverlay(row, src, removed, added, bud, mark)
		})
		g.DijkstraOverlay(row, src, removed, added)
		rowsEqualBitwise(t, row, want, fl+"/DijkstraOverlay")
		if after := g.Edges(); !slices.Equal(after, before) {
			t.Fatalf("overlay evaluation changed the graph: %v -> %v", before, after)
		}

		avoid := rng.Intn(n)
		pruned := g.Clone()
		for v := 0; v < n; v++ {
			pruned.RemoveEdge(avoid, v)
		}
		fw, got := pruned.FloydWarshall(), g.APSPAvoiding(avoid)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := got[i][j], fw[i][j]
				if i == avoid || j == avoid {
					b = math.Inf(1)
				}
				if math.IsInf(a, 1) != math.IsInf(b, 1) || (!math.IsInf(a, 1) && math.Abs(a-b) > 1e-9) {
					t.Fatalf("APSPAvoiding(%d)[%d][%d] = %v, FloydWarshall on the pruned graph = %v", avoid, i, j, a, b)
				}
			}
		}
	})
}

// flip toggles edge (u,v) in g — removing it, or adding it with a weight
// of the flavor — and records the change in removed or added.
func flip(g *Graph, u, v int, rng *rand.Rand, flavor string, removed, added []Edge) ([]Edge, []Edge) {
	if g.HasEdge(u, v) {
		removed = append(removed, Edge{U: u, V: v, W: g.EdgeWeight(u, v)})
		g.RemoveEdge(u, v)
		return removed, added
	}
	w := randRepairWeight(rng, flavor)
	g.AddEdge(u, v, w)
	return removed, append(added, Edge{U: u, V: v, W: w})
}

// checkRepair runs repair on row and holds it to want: on success every
// changed entry must be marked and the row must equal want; on refusal
// the row must be untouched and nothing marked.
func checkRepair(t *testing.T, ctx string, row, want []float64, repair func(mark func(int)) bool) {
	t.Helper()
	orig := slices.Clone(row)
	marked := make([]bool, len(row))
	if !repair(func(x int) { marked[x] = true }) {
		rowsEqualBitwise(t, row, orig, ctx+" refusal must not touch the row")
		if slices.Contains(marked, true) {
			t.Fatalf("%s: mark fired on refusal", ctx)
		}
		return
	}
	rowsEqualBitwise(t, row, want, ctx)
	for x := range row {
		if row[x] != orig[x] && !(math.IsInf(row[x], 1) && math.IsInf(orig[x], 1)) && !marked[x] {
			t.Fatalf("%s: entry %d changed (%v -> %v) without mark", ctx, x, orig[x], row[x])
		}
	}
}
