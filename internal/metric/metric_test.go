package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gncg/internal/graph"
)

func TestUnitSpace(t *testing.T) {
	u := Unit{N: 5}
	if u.Dist(0, 0) != 0 || u.Dist(1, 3) != 1 {
		t.Fatal("unit distances wrong")
	}
	if Classify(Matrix(u), 1e-9) != ClassUnit {
		t.Fatal("unit space not classified as NCG")
	}
}

func TestFromMatrixValidation(t *testing.T) {
	if _, err := FromMatrix([][]float64{{0, 1}, {2, 0}}); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	if _, err := FromMatrix([][]float64{{1}}); err == nil {
		t.Error("nonzero diagonal accepted")
	}
	if _, err := FromMatrix([][]float64{{0, -1}, {-1, 0}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := FromMatrix([][]float64{{0, 1, 2}, {1, 0}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	s, err := FromMatrix([][]float64{{0, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dist(0, 1) != 3 {
		t.Error("matrix space distance wrong")
	}
}

func TestIsMetric(t *testing.T) {
	ok := [][]float64{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}}
	if !IsMetric(ok, 1e-9) {
		t.Error("metric matrix rejected")
	}
	bad := [][]float64{{0, 1, 5}, {1, 0, 1}, {5, 1, 0}}
	if IsMetric(bad, 1e-9) {
		t.Error("non-metric matrix accepted")
	}
	withInf := [][]float64{{0, 1, math.Inf(1)}, {1, 0, 1}, {math.Inf(1), 1, 0}}
	if IsMetric(withInf, 1e-9) {
		t.Error("matrix with +Inf entries accepted as metric")
	}
}

// TestPNormTriangleInequality: every p-norm (p >= 1) induces a metric.
func TestPNormTriangleInequality(t *testing.T) {
	for _, p := range []float64{1, 1.5, 2, 3, math.Inf(1)} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 3 + rng.Intn(10)
			d := 1 + rng.Intn(4)
			coords := make([][]float64, n)
			for i := range coords {
				coords[i] = make([]float64, d)
				for k := range coords[i] {
					coords[i][k] = rng.NormFloat64() * 10
				}
			}
			ps, err := NewPoints(coords, p)
			if err != nil {
				return false
			}
			return IsMetric(Matrix(ps), 1e-7)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("p=%v: %v", p, err)
		}
	}
}

func TestPNormKnownValues(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if got := PNormDist(a, b, 1); got != 7 {
		t.Errorf("l1 = %v, want 7", got)
	}
	if got := PNormDist(a, b, 2); math.Abs(got-5) > 1e-12 {
		t.Errorf("l2 = %v, want 5", got)
	}
	if got := PNormDist(a, b, math.Inf(1)); got != 4 {
		t.Errorf("linf = %v, want 4", got)
	}
	if got := PNormDist(a, b, 3); math.Abs(got-math.Pow(27+64, 1.0/3)) > 1e-12 {
		t.Errorf("l3 = %v", got)
	}
}

func TestNewPointsValidation(t *testing.T) {
	if _, err := NewPoints([][]float64{{1, 2}, {1}}, 2); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := NewPoints([][]float64{{1}}, 0.5); err == nil {
		t.Error("p < 1 accepted")
	}
}

// TestTreeMetricMatchesDijkstra: LCA-based tree distances must equal
// shortest-path distances on the tree graph.
func TestTreeMetricMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		edges := make([]graph.Edge, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: rng.Intn(v), V: v, W: rng.Float64() * 10})
		}
		tm, err := NewTreeMetric(n, edges)
		if err != nil {
			return false
		}
		g := graph.FromEdges(n, edges)
		d := g.APSP()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(tm.Dist(i, j)-d[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTreeMetricIsMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 20
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: rng.Intn(v), V: v, W: rng.Float64() * 5})
	}
	tm, err := NewTreeMetric(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if !IsMetric(Matrix(tm), 1e-9) {
		t.Error("tree metric violates triangle inequality")
	}
}

func TestTreeMetricValidation(t *testing.T) {
	if _, err := NewTreeMetric(3, []graph.Edge{{U: 0, V: 1, W: 1}}); err == nil {
		t.Error("wrong edge count accepted")
	}
	if _, err := NewTreeMetric(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 2}, {U: 2, V: 3, W: 1}}); err == nil {
		t.Error("disconnected edge set accepted")
	}
	if _, err := NewTreeMetric(2, []graph.Edge{{U: 0, V: 1, W: math.Inf(1)}}); err == nil {
		t.Error("+Inf tree weight accepted")
	}
}

func TestOneTwoAlwaysMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		var ones [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					ones = append(ones, [2]int{u, v})
				}
			}
		}
		ot, err := NewOneTwo(n, ones)
		if err != nil {
			return false
		}
		m := Matrix(ot)
		return IsMetric(m, 1e-9) && Classify(m, 1e-9) != ClassGeneral
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOneTwoEdgesAndClassification(t *testing.T) {
	ot, err := NewOneTwo(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ot.Dist(0, 1) != 1 || ot.Dist(2, 3) != 1 || ot.Dist(0, 2) != 2 || ot.Dist(1, 1) != 0 {
		t.Error("1-edge weights wrong")
	}
	if Classify(Matrix(ot), 1e-9) != ClassOneTwo {
		t.Error("1-2 space misclassified")
	}
	if _, err := NewOneTwo(3, [][2]int{{0, 3}}); err == nil {
		t.Error("out-of-range 1-edge accepted")
	}
}

func TestOneInf(t *testing.T) {
	oi, err := NewOneInf(3, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if oi.Dist(0, 1) != 1 || !math.IsInf(oi.Dist(0, 2), 1) || oi.Dist(2, 2) != 0 {
		t.Error("1-inf distances wrong")
	}
	m := Matrix(oi)
	if Classify(m, 1e-9) != ClassOneInf {
		t.Errorf("1-inf misclassified as %v", Classify(m, 1e-9))
	}
	if IsMetric(m, 1e-9) {
		t.Error("1-inf host with missing edges must not be metric")
	}
}

func TestClosure(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	s := Closure(g)
	if s.Dist(0, 2) != 2 {
		t.Fatalf("closure distance = %v, want 2", s.Dist(0, 2))
	}
	if !IsMetric(Matrix(s), 1e-9) {
		t.Error("metric closure of connected graph must be metric")
	}
}

// TestStructuralClassifiers: spaces with the Classifier capability must
// answer in O(1) and, for the exactly-classifiable families (unit, {1,2},
// {1,∞}), agree with dense classification of their materialized matrix.
func TestStructuralClassifiers(t *testing.T) {
	partialOT, err := NewOneTwo(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	completeOT, err := NewOneTwo(3, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	partialOI, err := NewOneInf(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	completeOI, err := NewOneInf(3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		s     Space
		class Class
		isMet bool
	}{
		{"unit", Unit{N: 5}, ClassUnit, true},
		{"one-two partial", partialOT, ClassOneTwo, true},
		{"one-two complete (degenerates to unit)", completeOT, ClassUnit, true},
		{"one-inf partial", partialOI, ClassOneInf, false},
		{"one-inf complete (degenerates to unit)", completeOI, ClassUnit, true},
	}
	for _, c := range cases {
		cl, ok := c.s.(Classifier)
		if !ok {
			t.Fatalf("%s: missing Classifier capability", c.name)
		}
		if got := cl.Class(1e-9); got != c.class {
			t.Errorf("%s: structural class %v, want %v", c.name, got, c.class)
		}
		if got := cl.Metric(1e-9); got != c.isMet {
			t.Errorf("%s: structural metric %v, want %v", c.name, got, c.isMet)
		}
		// Exact families must agree with the dense validators.
		m := Matrix(c.s)
		if got := Classify(m, 1e-9); got != c.class {
			t.Errorf("%s: dense class %v disagrees with structural %v", c.name, got, c.class)
		}
		if got := IsMetric(m, 1e-9); got != c.isMet {
			t.Errorf("%s: dense metric %v disagrees with structural %v", c.name, got, c.isMet)
		}
	}
	// Point sets and tree closures answer their guaranteed class.
	pts, err := NewPoints([][]float64{{0, 0}, {3.1, 0}, {0, 4.2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pts.Class(1e-9) != ClassMetric || !pts.Metric(1e-9) {
		t.Error("point space must classify structurally as M-GNCG")
	}
	tm, err := NewTreeMetric(3, []graph.Edge{{U: 0, V: 1, W: 1.3}, {U: 1, V: 2, W: 2.6}})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Class(1e-9) != ClassMetric || !tm.Metric(1e-9) {
		t.Error("tree metric must classify structurally as M-GNCG")
	}
}

// TestForEachFinitePair: the sparse capability and the dense fallback must
// both enumerate exactly the finite pairs, ascending.
func TestForEachFinitePair(t *testing.T) {
	oi, err := NewOneInf(4, [][2]int{{2, 3}, {0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Space(oi).(FinitePairer); !ok {
		t.Fatal("1-inf space must advertise sparse finite-pair iteration")
	}
	collect := func(s Space) (pairs [][2]int, ws []float64) {
		ForEachFinitePair(s, func(u, v int, w float64) {
			pairs = append(pairs, [2]int{u, v})
			ws = append(ws, w)
		})
		return pairs, ws
	}
	pairs, ws := collect(oi)
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	if len(pairs) != len(want) {
		t.Fatalf("got %d finite pairs, want %d", len(pairs), len(want))
	}
	for i := range want {
		if pairs[i] != want[i] || ws[i] != 1 {
			t.Fatalf("pair %d = %v (w=%v), want %v (w=1)", i, pairs[i], ws[i], want[i])
		}
	}
	// Dense fallback on a matrix with +Inf entries: same enumeration.
	ms, err := FromMatrix(Matrix(oi))
	if err != nil {
		t.Fatal(err)
	}
	mpairs, mws := collect(ms)
	if len(mpairs) != len(pairs) {
		t.Fatalf("fallback found %d pairs, want %d", len(mpairs), len(pairs))
	}
	for i := range pairs {
		if mpairs[i] != pairs[i] || mws[i] != ws[i] {
			t.Fatalf("fallback pair %d = %v, want %v", i, mpairs[i], pairs[i])
		}
	}
}

func TestClassifyGeneral(t *testing.T) {
	w := [][]float64{{0, 0.5, 10}, {0.5, 0, 1}, {10, 1, 0}}
	if got := Classify(w, 1e-9); got != ClassGeneral {
		t.Errorf("Classify = %v, want GNCG", got)
	}
	if ClassGeneral.String() != "GNCG" || ClassOneTwo.String() != "1-2-GNCG" {
		t.Error("class names wrong")
	}
}
