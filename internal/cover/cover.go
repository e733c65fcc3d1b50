// Package cover provides exact and greedy solvers for Vertex Cover and
// Set Cover: the NP-hard problems the paper reduces from. Thm 4 reduces
// Vertex Cover to deciding whether a 1-2–GNCG profile is a Nash
// equilibrium; Thms 13 and 16 reduce Minimum Set Cover to best-response
// computation in the T–GNCG and Rd–GNCG. The experiment harness uses
// these solvers as independent oracles to verify the reductions'
// correspondence on concrete instances.
package cover

import (
	"fmt"
	"math"
	"sort"
)

// VCInstance is an undirected simple graph given by its edges.
type VCInstance struct {
	N     int
	Edges [][2]int
}

// NewVCInstance validates the edge list.
func NewVCInstance(n int, edges [][2]int) (*VCInstance, error) {
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n || e[0] == e[1] {
			return nil, fmt.Errorf("cover: invalid edge (%d,%d) on %d vertices", e[0], e[1], n)
		}
	}
	return &VCInstance{N: n, Edges: edges}, nil
}

// IsVertexCover reports whether the vertex set covers every edge.
func (ins *VCInstance) IsVertexCover(cover []int) bool {
	in := make([]bool, ins.N)
	for _, v := range cover {
		if v < 0 || v >= ins.N {
			return false
		}
		in[v] = true
	}
	for _, e := range ins.Edges {
		if !in[e[0]] && !in[e[1]] {
			return false
		}
	}
	return true
}

// MinVertexCover computes a minimum vertex cover by branch-and-bound:
// pick an uncovered edge and branch on which endpoint joins the cover.
// Exponential in the worst case (the problem is NP-hard, even on
// subcubic graphs, which is what Thm 4 leans on) but fast for the small
// gadget-validation instances.
func MinVertexCover(ins *VCInstance) []int {
	best := make([]int, 0, ins.N)
	for v := 0; v < ins.N; v++ {
		best = append(best, v) // trivial cover: everything
	}
	in := make([]bool, ins.N)
	var rec func(count int)
	rec = func(count int) {
		if count >= len(best) {
			return
		}
		// Find an uncovered edge.
		var un *[2]int
		for i := range ins.Edges {
			e := &ins.Edges[i]
			if !in[e[0]] && !in[e[1]] {
				un = e
				break
			}
		}
		if un == nil {
			best = best[:0]
			for v := 0; v < ins.N; v++ {
				if in[v] {
					best = append(best, v)
				}
			}
			return
		}
		for _, v := range []int{un[0], un[1]} {
			in[v] = true
			rec(count + 1)
			in[v] = false
		}
	}
	rec(0)
	out := append([]int(nil), best...)
	sort.Ints(out)
	return out
}

// SCInstance is a set-cover instance: a universe {0,...,K-1} and a
// collection of subsets. Every element must appear in at least one set
// for a cover to exist.
type SCInstance struct {
	K    int
	Sets [][]int
}

// NewSCInstance validates element ranges and that the union covers the
// universe.
func NewSCInstance(k int, sets [][]int) (*SCInstance, error) {
	seen := make([]bool, k)
	for i, s := range sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("cover: set %d is empty", i)
		}
		for _, e := range s {
			if e < 0 || e >= k {
				return nil, fmt.Errorf("cover: element %d out of range in set %d", e, i)
			}
			seen[e] = true
		}
	}
	for e, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("cover: element %d is in no set", e)
		}
	}
	return &SCInstance{K: k, Sets: sets}, nil
}

// IsSetCover reports whether the chosen set indices cover the universe.
func (ins *SCInstance) IsSetCover(chosen []int) bool {
	seen := make([]bool, ins.K)
	for _, i := range chosen {
		if i < 0 || i >= len(ins.Sets) {
			return false
		}
		for _, e := range ins.Sets[i] {
			seen[e] = true
		}
	}
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}

// MinSetCover computes a minimum set cover by branch-and-bound on the
// lowest-index uncovered element, seeded with the greedy cover and
// bounded by ceil(uncovered / largest set size).
func MinSetCover(ins *SCInstance) []int {
	best := GreedySetCover(ins)
	maxSize := 0
	for _, s := range ins.Sets {
		if len(s) > maxSize {
			maxSize = len(s)
		}
	}
	// setsWith[e] lists sets containing element e.
	setsWith := make([][]int, ins.K)
	for i, s := range ins.Sets {
		for _, e := range s {
			setsWith[e] = append(setsWith[e], i)
		}
	}
	coverCount := make([]int, ins.K)
	var chosen []int
	uncovered := ins.K
	var rec func()
	rec = func() {
		if len(chosen) >= len(best) {
			return
		}
		if uncovered == 0 {
			best = append([]int(nil), chosen...)
			return
		}
		if len(chosen)+int(math.Ceil(float64(uncovered)/float64(maxSize))) >= len(best) {
			return
		}
		// Branch on the first uncovered element.
		e := -1
		for x := 0; x < ins.K; x++ {
			if coverCount[x] == 0 {
				e = x
				break
			}
		}
		for _, si := range setsWith[e] {
			chosen = append(chosen, si)
			for _, x := range ins.Sets[si] {
				if coverCount[x] == 0 {
					uncovered--
				}
				coverCount[x]++
			}
			rec()
			for _, x := range ins.Sets[si] {
				coverCount[x]--
				if coverCount[x] == 0 {
					uncovered++
				}
			}
			chosen = chosen[:len(chosen)-1]
		}
	}
	rec()
	out := append([]int(nil), best...)
	sort.Ints(out)
	return out
}

// GreedySetCover returns the classical ln(k)-approximate cover: take the
// set covering the most uncovered elements until done.
func GreedySetCover(ins *SCInstance) []int {
	covered := make([]bool, ins.K)
	remaining := ins.K
	var out []int
	for remaining > 0 {
		bestSet, bestGain := -1, 0
		for i, s := range ins.Sets {
			gain := 0
			for _, e := range s {
				if !covered[e] {
					gain++
				}
			}
			if gain > bestGain {
				bestSet, bestGain = i, gain
			}
		}
		if bestSet < 0 {
			break // unreachable for validated instances
		}
		out = append(out, bestSet)
		for _, e := range ins.Sets[bestSet] {
			if !covered[e] {
				covered[e] = true
				remaining--
			}
		}
	}
	sort.Ints(out)
	return out
}
