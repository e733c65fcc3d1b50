package metric

import "fmt"

// OneTwo is a {1,2}-weighted host space (1-2–GNCG): weight 1 on the edges
// of an underlying simple graph and weight 2 everywhere else. Every such
// space satisfies the triangle inequality, making it the simplest
// non-trivial metric special case.
type OneTwo struct {
	n    int
	m    int // number of distinct 1-edges
	ones [][]bool
}

// NewOneTwo builds a {1,2} space on n points whose 1-edges are given as
// vertex pairs. Pairs must be distinct valid vertices.
func NewOneTwo(n int, oneEdges [][2]int) (*OneTwo, error) {
	ones := make([][]bool, n)
	for i := range ones {
		ones[i] = make([]bool, n)
	}
	m := 0
	for _, e := range oneEdges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return nil, fmt.Errorf("metric: invalid 1-edge (%d,%d) on %d points", u, v, n)
		}
		if !ones[u][v] {
			m++
		}
		ones[u][v] = true
		ones[v][u] = true
	}
	return &OneTwo{n: n, m: m, ones: ones}, nil
}

// Size returns the number of points.
func (o *OneTwo) Size() int { return o.n }

// Dist returns 1 for 1-edges, 2 for other distinct pairs, 0 on the
// diagonal.
func (o *OneTwo) Dist(i, j int) float64 {
	switch {
	case i == j:
		return 0
	case o.ones[i][j]:
		return 1
	default:
		return 2
	}
}

// Class reports the exact model class in O(1) (Classifier capability):
// ClassUnit when every pair is a 1-edge (the space degenerates to the
// NCG), ClassOneTwo otherwise.
func (o *OneTwo) Class(eps float64) Class {
	if complete(o.n, o.m) {
		return ClassUnit
	}
	return ClassOneTwo
}

// Metric reports true: {1,2} weights always satisfy the triangle
// inequality.
func (o *OneTwo) Metric(eps float64) bool { return true }

// complete reports whether m distinct edges cover all pairs of n points.
func complete(n, m int) bool { return m == n*(n-1)/2 }

// OneInf is a {1,+Inf} host space (1-∞–GNCG): the paper's encoding of a
// general unweighted host graph, where +Inf marks edges that can never be
// bought. It is inherently non-metric whenever any pair is at +Inf.
type OneInf struct {
	n    int
	m    int // number of distinct buyable (weight-1) edges
	ones [][]bool
}

// NewOneInf builds a {1,∞} space on n points whose buyable (weight-1)
// edges are given as vertex pairs.
func NewOneInf(n int, oneEdges [][2]int) (*OneInf, error) {
	ot, err := NewOneTwo(n, oneEdges)
	if err != nil {
		return nil, err
	}
	return &OneInf{n: n, m: ot.m, ones: ot.ones}, nil
}

// Size returns the number of points.
func (o *OneInf) Size() int { return o.n }

// Dist returns 1 for buyable edges and +Inf for other distinct pairs.
func (o *OneInf) Dist(i, j int) float64 {
	switch {
	case i == j:
		return 0
	case o.ones[i][j]:
		return 1
	default:
		return inf
	}
}

// Class reports the exact model class in O(1) (Classifier capability):
// ClassUnit when every pair is buyable (no +Inf entries remain),
// ClassOneInf otherwise.
func (o *OneInf) Class(eps float64) Class {
	if complete(o.n, o.m) {
		return ClassUnit
	}
	return ClassOneInf
}

// Metric reports whether the space is metric: true only when no pair is
// at +Inf (a metric host must be finite).
func (o *OneInf) Metric(eps float64) bool { return complete(o.n, o.m) }

// ForEachFinitePair enumerates the buyable pairs in ascending (u,v) order
// (FinitePairer capability): O(n²) scan over the adjacency rows but only
// O(m) callbacks, and downstream consumers never observe +Inf entries.
func (o *OneInf) ForEachFinitePair(fn func(u, v int, w float64)) {
	for u := 0; u < o.n; u++ {
		row := o.ones[u]
		for v := u + 1; v < o.n; v++ {
			if row[v] {
				fn(u, v, 1)
			}
		}
	}
}
