package gen

import (
	"math"
	"testing"

	"gncg/internal/metric"
)

func TestPointsDeterministicAndInRange(t *testing.T) {
	a := Points(7, 20, 3, 10, 2)
	b := Points(7, 20, 3, 10, 2)
	if a.Size() != 20 || len(a.Coords[0]) != 3 {
		t.Fatalf("shape %d x %d", a.Size(), len(a.Coords[0]))
	}
	for i := range a.Coords {
		for k := range a.Coords[i] {
			if a.Coords[i][k] != b.Coords[i][k] {
				t.Fatal("same seed produced different points")
			}
			if a.Coords[i][k] < 0 || a.Coords[i][k] > 10 {
				t.Fatalf("coordinate %v out of [0,10]", a.Coords[i][k])
			}
		}
	}
	c := Points(8, 20, 3, 10, 2)
	same := true
	for i := range a.Coords {
		for k := range a.Coords[i] {
			if a.Coords[i][k] != c.Coords[i][k] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical point sets")
	}
}

func TestClusteredPointsShape(t *testing.T) {
	ps := ClusteredPoints(3, 30, 4, 100, 2)
	if ps.Size() != 30 || len(ps.Coords[0]) != 2 {
		t.Fatalf("shape %d x %d", ps.Size(), len(ps.Coords[0]))
	}
	if !metric.IsMetric(metric.Matrix(ps), 1e-9) {
		t.Fatal("clustered points not metric")
	}
}

func TestTreeValidMetric(t *testing.T) {
	tm := Tree(5, 15, 1, 10)
	if tm.Size() != 15 {
		t.Fatalf("size %d", tm.Size())
	}
	m := metric.Matrix(tm)
	if !metric.IsMetric(m, 1e-9) {
		t.Fatal("tree metric violates triangle inequality")
	}
	for i := 0; i < 15; i++ {
		for j := i + 1; j < 15; j++ {
			if m[i][j] < 1-1e-9 {
				t.Fatalf("tree distance %v below min edge weight", m[i][j])
			}
		}
	}
}

func TestOneTwoClassification(t *testing.T) {
	ot := OneTwo(9, 12, 0.4)
	cl := metric.Classify(metric.Matrix(ot), 1e-9)
	if cl != metric.ClassOneTwo && cl != metric.ClassUnit {
		t.Fatalf("classified as %v", cl)
	}
}

func TestMetricGeneratorIsMetric(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		sp := Metric(seed, 10, 0.3, 9)
		if !metric.IsMetric(metric.Matrix(sp), 1e-9) {
			t.Fatalf("seed %d: closure not metric", seed)
		}
	}
}

func TestNonMetricShape(t *testing.T) {
	w := NonMetric(4, 8, 10)
	for i := range w {
		if w[i][i] != 0 {
			t.Fatal("nonzero diagonal")
		}
		for j := range w {
			if w[i][j] != w[j][i] || w[i][j] < 0 || math.IsNaN(w[i][j]) {
				t.Fatalf("bad weight at (%d,%d): %v", i, j, w[i][j])
			}
		}
	}
}

func TestVCGenerator(t *testing.T) {
	ins := VC(3, 12, 0.5, 3)
	deg := make([]int, ins.N)
	for _, e := range ins.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for v, d := range deg {
		if d > 3 {
			t.Fatalf("vertex %d has degree %d > maxDeg 3", v, d)
		}
	}
	unbounded := VC(3, 12, 0.5, 0)
	if len(unbounded.Edges) < len(ins.Edges) {
		t.Fatal("degree cap increased edge count")
	}
}

func TestSCGeneratorCovers(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ins := SC(seed, 8, 5, 0.3)
		all := make([]int, len(ins.Sets))
		for i := range all {
			all[i] = i
		}
		if !ins.IsSetCover(all) {
			t.Fatalf("seed %d: generated instance is not coverable", seed)
		}
	}
}
