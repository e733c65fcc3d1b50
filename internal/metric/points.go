package metric

import (
	"fmt"
	"math"
	"sync"

	"gncg/internal/geom"
)

// Points is a finite point set in R^d whose pairwise distances are taken
// under a p-norm: the host space of the Rd–GNCG. P may be any value >= 1,
// or math.Inf(1) for the max norm.
//
// Points carries a lazily-built kd-tree behind its CandidateSource
// capability; once any neighborhood query has run, Coords must not be
// mutated (they never could be without changing the space anyway).
// Points must not be copied by value after first use.
type Points struct {
	Coords [][]float64
	P      float64

	kdOnce sync.Once
	kd     *geom.KDTree
}

// NewPoints validates and wraps a coordinate list. All points must share
// the same dimension and p must be >= 1 (or +Inf).
func NewPoints(coords [][]float64, p float64) (*Points, error) {
	if p < 1 && !math.IsInf(p, 1) {
		return nil, fmt.Errorf("metric: p-norm requires p >= 1, got %v", p)
	}
	if len(coords) == 0 {
		return &Points{Coords: coords, P: p}, nil
	}
	d := len(coords[0])
	for i, c := range coords {
		if len(c) != d {
			return nil, fmt.Errorf("metric: point %d has dimension %d, want %d", i, len(c), d)
		}
	}
	return &Points{Coords: coords, P: p}, nil
}

// Size returns the number of points.
func (ps *Points) Size() int { return len(ps.Coords) }

// Dist returns the p-norm distance between points i and j.
func (ps *Points) Dist(i, j int) float64 {
	return PNormDist(ps.Coords[i], ps.Coords[j], ps.P)
}

// Class reports ClassMetric: every p-norm (p >= 1) induces a metric
// (Classifier capability). This is the class guaranteed by construction; a
// degenerate point set may incidentally realize a smaller class (e.g. all
// pairs at distance exactly 1), which only dense classification detects.
func (ps *Points) Class(eps float64) Class { return ClassMetric }

// Metric reports true: p-norm distances satisfy the triangle inequality
// for every p >= 1 (and p = +Inf).
func (ps *Points) Metric(eps float64) bool { return true }

// AppendWithin appends the index of every point v with Dist(u,v) <= r —
// u itself included — in ascending index order (CandidateSource
// capability). The backing kd-tree is built on first use, in O(n log²n),
// and shared by all subsequent queries; the query itself is
// output-sensitive. The result is bit-equal to a brute-force scan of
// Dist: the tree's box pruning only ever over-includes, and every
// surviving point passes an exact PNormDist check.
func (ps *Points) AppendWithin(u int, r float64, buf []int) []int {
	ps.kdOnce.Do(func() { ps.kd = geom.NewKDTree(ps.Coords, ps.P) })
	return ps.kd.AppendWithin(ps.Coords[u], r, buf)
}

// NearestOtherDist returns min over v != u of Dist(u, v), exactly: a
// kd 2-nearest query from u's own coordinate returns u plus its closest
// other point (ties broken by index, so a duplicate coordinate yields
// distance 0), and the reported value is the same PNormDist evaluation
// Dist performs. +Inf for a one-point space (CandidateSource
// capability).
func (ps *Points) NearestOtherDist(u int) float64 {
	ps.kdOnce.Do(func() { ps.kd = geom.NewKDTree(ps.Coords, ps.P) })
	best := math.Inf(1)
	for _, v := range ps.kd.KNearest(ps.Coords[u], 2) {
		if v == u {
			continue
		}
		if d := PNormDist(ps.Coords[u], ps.Coords[v], ps.P); d < best {
			best = d
		}
	}
	return best
}

// PNormDist returns ||a-b||_p for p >= 1 or p = +Inf.
func PNormDist(a, b []float64, p float64) float64 {
	if len(a) != len(b) {
		panic("metric: dimension mismatch")
	}
	switch {
	case math.IsInf(p, 1):
		maxd := 0.0
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > maxd {
				maxd = d
			}
		}
		return maxd
	case p == 1:
		s := 0.0
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	case p == 2:
		s := 0.0
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	default:
		s := 0.0
		for i := range a {
			s += math.Pow(math.Abs(a[i]-b[i]), p)
		}
		return math.Pow(s, 1/p)
	}
}
