package metric

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"gncg/internal/geom"
	"gncg/internal/graph"
)

// TreeMetric is the metric closure of an edge-weighted tree: the host
// space of the T–GNCG. Distance queries run in O(log n) via binary-lifting
// LCA after an O(n log n) preprocessing pass. A lazily-built adjacency
// index answers neighborhood queries by truncated traversal
// (CandidateSource capability); TreeMetric must not be copied by value
// after first use.
type TreeMetric struct {
	n      int
	edges  []graph.Edge
	parent [][]int // parent[k][v] = 2^k-th ancestor of v (-1 above root)
	depth  []int
	dist   []float64 // weighted distance from root

	idxOnce sync.Once
	index   *geom.TreeIndex
}

// NewTreeMetric builds the metric defined by the given tree. The edge list
// must form a spanning tree on n vertices (n-1 edges, connected) with
// non-negative weights.
func NewTreeMetric(n int, edges []graph.Edge) (*TreeMetric, error) {
	if len(edges) != n-1 {
		return nil, fmt.Errorf("metric: tree on %d vertices needs %d edges, got %d", n, n-1, len(edges))
	}
	for _, e := range edges {
		if e.W < 0 || math.IsInf(e.W, 1) || math.IsNaN(e.W) {
			return nil, fmt.Errorf("metric: invalid tree edge weight %v", e.W)
		}
	}
	g := graph.FromEdges(n, edges)
	if !g.Connected() {
		return nil, fmt.Errorf("metric: tree edges do not connect %d vertices", n)
	}
	tm := &TreeMetric{
		n:     n,
		edges: append([]graph.Edge(nil), edges...),
		depth: make([]int, n),
		dist:  make([]float64, n),
	}
	levels := 1
	for 1<<levels < n {
		levels++
	}
	tm.parent = make([][]int, levels)
	for k := range tm.parent {
		tm.parent[k] = make([]int, n)
		for v := range tm.parent[k] {
			tm.parent[k][v] = -1
		}
	}
	// Iterative DFS from root 0 computing depth, root distance, parents.
	type frame struct{ v, from int }
	stack := []frame{{0, -1}}
	seen := make([]bool, n)
	seen[0] = true
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.Neighbors(f.v, func(to int, w float64) {
			if seen[to] {
				return
			}
			seen[to] = true
			tm.parent[0][to] = f.v
			tm.depth[to] = tm.depth[f.v] + 1
			tm.dist[to] = tm.dist[f.v] + w
			stack = append(stack, frame{to, f.v})
		})
	}
	for k := 1; k < levels; k++ {
		for v := 0; v < n; v++ {
			if p := tm.parent[k-1][v]; p >= 0 {
				tm.parent[k][v] = tm.parent[k-1][p]
			}
		}
	}
	return tm, nil
}

// Size returns the number of vertices.
func (tm *TreeMetric) Size() int { return tm.n }

// Edges returns the defining tree's edges; by Corollary 3 of the paper
// this tree is both the social optimum and a Nash equilibrium of the
// T–GNCG played on this metric.
func (tm *TreeMetric) Edges() []graph.Edge {
	return append([]graph.Edge(nil), tm.edges...)
}

// Class reports ClassMetric: shortest-path closures of non-negative trees
// are metrics (Classifier capability). This is the class guaranteed by
// construction; a degenerate tree (e.g. a unit-weight star, whose closure
// is a {1,2} metric) may incidentally realize a smaller class, which only
// dense classification detects.
func (tm *TreeMetric) Class(eps float64) Class { return ClassMetric }

// Metric reports true: tree closures satisfy the triangle inequality.
func (tm *TreeMetric) Metric(eps float64) bool { return true }

// Dist returns the weighted tree distance between i and j.
func (tm *TreeMetric) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	l := tm.lca(i, j)
	return tm.dist[i] + tm.dist[j] - 2*tm.dist[l]
}

// AppendWithin appends the index of every vertex v with Dist(u,v) <= r —
// u itself included — in ascending index order (CandidateSource
// capability). The adjacency index, built on first use, walks the tree
// outward from u and stops descending once the accumulated path distance
// exceeds a margin-slackened r (path distances only grow along a tree
// walk, so truncation is sound); each visited vertex is then re-checked
// against the LCA-label Dist, making the result bit-equal to a
// brute-force scan of Dist.
func (tm *TreeMetric) AppendWithin(u int, r float64, buf []int) []int {
	tm.idxOnce.Do(func() { tm.index = geom.NewTreeIndex(tm.n, tm.edges) })
	first := len(buf)
	tm.index.ForEachWithin(u, r, func(v int, _ float64) {
		if tm.Dist(u, v) <= r {
			buf = append(buf, v)
		}
	})
	sort.Ints(buf[first:])
	return buf
}

// NearestOtherDist returns the Dist to u's nearest other vertex (+Inf
// for a one-vertex tree): in a non-negatively weighted tree every path
// leaves u through an incident edge whose weight already bounds it
// below, so the nearest vertex is a tree neighbor and an O(deg) scan of
// the adjacency index answers the query. Each neighbor is measured with
// the same LCA-label Dist the membership checks use; the handful of
// ulps by which that evaluation can drift from the edge weight stays
// within the caller's certified slack (CandidateSource capability).
func (tm *TreeMetric) NearestOtherDist(u int) float64 {
	tm.idxOnce.Do(func() { tm.index = geom.NewTreeIndex(tm.n, tm.edges) })
	best := math.Inf(1)
	tm.index.ForEachNeighbor(u, func(v int, _ float64) {
		if d := tm.Dist(u, v); d < best {
			best = d
		}
	})
	return best
}

func (tm *TreeMetric) lca(u, v int) int {
	if tm.depth[u] < tm.depth[v] {
		u, v = v, u
	}
	diff := tm.depth[u] - tm.depth[v]
	for k := 0; diff != 0; k++ {
		if diff&1 != 0 {
			u = tm.parent[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return u
	}
	for k := len(tm.parent) - 1; k >= 0; k-- {
		if tm.parent[k][u] != tm.parent[k][v] {
			u = tm.parent[k][u]
			v = tm.parent[k][v]
		}
	}
	return tm.parent[0][u]
}
