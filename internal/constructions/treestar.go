package constructions

import (
	"fmt"
	"math"

	"gncg/internal/game"
	"gncg/internal/graph"
	"gncg/internal/metric"
)

// Thm15Star builds the T–GNCG lower-bound family of Thm 15 (Fig. 6): the
// metric is defined by a star S*_n with center u (node 0), one edge
// (u,v) of weight 1 (v is node 1), and n-2 edges of weight 2/α to leaves
// (nodes 2..n-1). The social optimum candidate is the defining star; the
// equilibrium candidate is the star S_n centered at v with v owning all
// edges: (v,u) of weight 1 and (v,leaf) of weight 1+2/α.
//
// The instance ratio is ((n-2)(1+2/α)+1) / ((n-2)(2/α)+1), which tends to
// (α+2)/2 as n grows; Predicted reports the exact finite-n value.
func Thm15Star(n int, alpha float64) (*LowerBound, error) {
	if n < 3 {
		return nil, fmt.Errorf("constructions: Thm15Star needs n >= 3, got %d", n)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("constructions: Thm15Star needs alpha > 0, got %v", alpha)
	}
	leafW := 2 / alpha
	edges := make([]graph.Edge, 0, n-1)
	edges = append(edges, graph.Edge{U: 0, V: 1, W: 1})
	for i := 2; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i, W: leafW})
	}
	tm, err := metric.NewTreeMetric(n, edges)
	if err != nil {
		return nil, err
	}
	g := game.New(game.NewHost(tm), alpha)
	ne := game.StarProfile(n, 1)
	pred := (float64(n-2)*(1+leafW) + 1) / (float64(n-2)*leafW + 1)
	return &LowerBound{
		Name:        fmt.Sprintf("Thm15 T-GNCG star (n=%d, alpha=%g)", n, alpha),
		Game:        g,
		Equilibrium: ne,
		Optimum:     edges,
		Predicted:   pred,
	}, nil
}

// Thm19CrossPolytope builds the Rd–GNCG (1-norm) lower bound of Thm 19
// (Fig. 10): 2d+1 points v0 = origin (node 0), v1 = e_1 (node 1), and the
// 2d-1 points -(2/α)e_1, ±(2/α)e_i for i >= 2 (nodes 2..2d). Under the
// 1-norm this embeds exactly the Thm 15 star with n = 2d+1: the optimum
// candidate is the star at v0, the equilibrium candidate the star at v1
// owned by v1. Predicted = 1 + α/(2 + α/(2d-1)), exact for every d.
func Thm19CrossPolytope(d int, alpha float64) (*LowerBound, error) {
	if d < 1 {
		return nil, fmt.Errorf("constructions: Thm19CrossPolytope needs d >= 1, got %d", d)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("constructions: Thm19CrossPolytope needs alpha > 0, got %v", alpha)
	}
	n := 2*d + 1
	r := 2 / alpha
	coords := make([][]float64, 0, n)
	origin := make([]float64, d)
	coords = append(coords, origin)
	v1 := make([]float64, d)
	v1[0] = 1
	coords = append(coords, v1)
	v2 := make([]float64, d)
	v2[0] = -r
	coords = append(coords, v2)
	for i := 1; i < d; i++ {
		plus := make([]float64, d)
		plus[i] = r
		minus := make([]float64, d)
		minus[i] = -r
		coords = append(coords, plus, minus)
	}
	pts, err := metric.NewPoints(coords, 1)
	if err != nil {
		return nil, err
	}
	g := game.New(game.NewHost(pts), alpha)
	opt := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		opt = append(opt, graph.Edge{U: 0, V: v, W: pts.Dist(0, v)})
	}
	twoD1 := float64(2*d - 1)
	pred := 1 + alpha/(2+alpha/twoD1)
	return &LowerBound{
		Name:        fmt.Sprintf("Thm19 l1 cross-polytope (d=%d, alpha=%g)", d, alpha),
		Game:        g,
		Equilibrium: game.StarProfile(n, 1),
		Optimum:     opt,
		Predicted:   pred,
	}, nil
}

// Lemma8Path builds the 1-dimensional geometric family of Lemma 8
// (Fig. 9) on m points: positions x_0 = 0, x_1 = 1 and
// x_i = x_{i-1} + (2/α)(1+2/α)^(i-2) for i >= 2. The optimum candidate is
// the path (consecutive points); the equilibrium candidate is the star
// centered at v0 with v0 owning every edge, whose weight to v_i is
// (1+2/α)^(i-1). Lemma 8 proves the ratio exceeds 1 for every n >= 3;
// Predicted carries the exact ratio of the two candidate costs computed
// in closed form.
func Lemma8Path(m int, alpha float64) (*LowerBound, error) {
	if m < 3 {
		return nil, fmt.Errorf("constructions: Lemma8Path needs m >= 3 points, got %d", m)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("constructions: Lemma8Path needs alpha > 0, got %v", alpha)
	}
	q := 1 + 2/alpha
	coords := make([][]float64, m)
	coords[0] = []float64{0}
	pos := 0.0
	for i := 1; i < m; i++ {
		var step float64
		if i == 1 {
			step = 1
		} else {
			step = (2 / alpha) * math.Pow(q, float64(i-2))
		}
		pos += step
		coords[i] = []float64{pos}
	}
	pts, err := metric.NewPoints(coords, 1)
	if err != nil {
		return nil, err
	}
	g := game.New(game.NewHost(pts), alpha)
	opt := make([]graph.Edge, 0, m-1)
	for i := 0; i+1 < m; i++ {
		opt = append(opt, graph.Edge{U: i, V: i + 1, W: pts.Dist(i, i+1)})
	}
	lb := &LowerBound{
		Name:        fmt.Sprintf("Lemma8 path-vs-star (m=%d, alpha=%g)", m, alpha),
		Game:        g,
		Equilibrium: game.StarProfile(m, 0),
		Optimum:     opt,
	}
	lb.Predicted = lb.EquilibriumCost() / lb.OptimumCost()
	return lb, nil
}

// Thm18Ratio is the closed-form four-point lower bound of Thm 18:
// (3α³+24α²+40α+24)/(α³+10α²+32α+24).
func Thm18Ratio(alpha float64) float64 {
	num := 3*alpha*alpha*alpha + 24*alpha*alpha + 40*alpha + 24
	den := alpha*alpha*alpha + 10*alpha*alpha + 32*alpha + 24
	return num / den
}

// Thm18FourPoint builds Lemma 8's construction restricted to four points,
// for which Thm 18 states the exact ratio Thm18Ratio(α). Four points keep
// the instance inside exhaustive reach: the experiment harness verifies
// both the equilibrium property and that the path really is the global
// social optimum.
func Thm18FourPoint(alpha float64) (*LowerBound, error) {
	lb, err := Lemma8Path(4, alpha)
	if err != nil {
		return nil, err
	}
	lb.Name = fmt.Sprintf("Thm18 four-point (alpha=%g)", alpha)
	lb.Predicted = Thm18Ratio(alpha)
	return lb, nil
}
