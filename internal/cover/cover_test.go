package cover

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func bruteForceVC(ins *VCInstance) int {
	best := ins.N
	for mask := 0; mask < 1<<ins.N; mask++ {
		var cov []int
		for v := 0; v < ins.N; v++ {
			if mask&(1<<v) != 0 {
				cov = append(cov, v)
			}
		}
		if len(cov) < best && ins.IsVertexCover(cov) {
			best = len(cov)
		}
	}
	return best
}

func bruteForceSC(ins *SCInstance) int {
	best := len(ins.Sets)
	for mask := 0; mask < 1<<len(ins.Sets); mask++ {
		var ch []int
		for i := range ins.Sets {
			if mask&(1<<i) != 0 {
				ch = append(ch, i)
			}
		}
		if len(ch) < best && ins.IsSetCover(ch) {
			best = len(ch)
		}
	}
	return best
}

func TestVCValidation(t *testing.T) {
	if _, err := NewVCInstance(3, [][2]int{{0, 3}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewVCInstance(3, [][2]int{{1, 1}}); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestMinVertexCoverKnown(t *testing.T) {
	// Path on 5 vertices: minimum cover has size 2 (vertices 1 and 3).
	ins, err := NewVCInstance(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	cov := MinVertexCover(ins)
	if len(cov) != 2 || !ins.IsVertexCover(cov) {
		t.Fatalf("MinVertexCover = %v", cov)
	}
	// Triangle: minimum cover has size 2.
	tri, _ := NewVCInstance(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if got := MinVertexCover(tri); len(got) != 2 {
		t.Fatalf("triangle cover = %v", got)
	}
	// Empty edge set: empty cover.
	empty, _ := NewVCInstance(4, nil)
	if got := MinVertexCover(empty); len(got) != 0 {
		t.Fatalf("empty graph cover = %v", got)
	}
}

func TestMinVertexCoverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		ins, err := NewVCInstance(n, edges)
		if err != nil {
			return false
		}
		got := MinVertexCover(ins)
		return ins.IsVertexCover(got) && len(got) == bruteForceVC(ins)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSCValidation(t *testing.T) {
	if _, err := NewSCInstance(3, [][]int{{0, 1}}); err == nil {
		t.Error("uncoverable universe accepted")
	}
	if _, err := NewSCInstance(2, [][]int{{0, 1}, {}}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewSCInstance(2, [][]int{{0, 2}}); err == nil {
		t.Error("out-of-range element accepted")
	}
}

func TestMinSetCoverKnown(t *testing.T) {
	// Universe {0..4}; sets: {0,1,2}, {3,4}, {0,3}, {1,4}, {2}. Optimal 2.
	ins, err := NewSCInstance(5, [][]int{{0, 1, 2}, {3, 4}, {0, 3}, {1, 4}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	got := MinSetCover(ins)
	if len(got) != 2 || !ins.IsSetCover(got) {
		t.Fatalf("MinSetCover = %v", got)
	}
}

func TestMinSetCoverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(7)
		m := 2 + rng.Intn(6)
		sets := make([][]int, 0, m+1)
		for i := 0; i < m; i++ {
			var s []int
			for e := 0; e < k; e++ {
				if rng.Float64() < 0.4 {
					s = append(s, e)
				}
			}
			if len(s) > 0 {
				sets = append(sets, s)
			}
		}
		// Guarantee coverage with singletons of uncovered elements.
		seen := make([]bool, k)
		for _, s := range sets {
			for _, e := range s {
				seen[e] = true
			}
		}
		for e, ok := range seen {
			if !ok {
				sets = append(sets, []int{e})
			}
		}
		ins, err := NewSCInstance(k, sets)
		if err != nil {
			return false
		}
		got := MinSetCover(ins)
		return ins.IsSetCover(got) && len(got) == bruteForceSC(ins)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedySetCoverIsCover(t *testing.T) {
	ins, _ := NewSCInstance(6, [][]int{{0, 1, 2, 3}, {4, 5}, {0, 4}, {1, 5}, {2}, {3}})
	if !ins.IsSetCover(GreedySetCover(ins)) {
		t.Fatal("greedy result is not a cover")
	}
}
