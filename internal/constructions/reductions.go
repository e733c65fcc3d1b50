package constructions

import (
	"fmt"
	"math"

	"gncg/internal/cover"
	"gncg/internal/game"
	"gncg/internal/graph"
	"gncg/internal/metric"
)

// VCReduction is the Thm 4 gadget (Fig. 2): a 1-2–GNCG instance with
// α = 1 in which agent u's best response encodes Minimum Vertex Cover,
// making "is this profile a Nash equilibrium?" co-NP-hard to decide.
//
// Layout: vertex node a_i at index i (one per VC vertex), edge nodes
// p_j, p'_j at indices N+2j and N+2j+1 (two per VC edge), and u last.
// 1-edges: every pair of vertex nodes, and (a_i, p_j), (a_i, p'_j)
// whenever v_i is an endpoint of e_j. Everything else (including all of
// u's pairs) has weight 2.
type VCReduction struct {
	VC   *cover.VCInstance
	Game *game.Game
	U    int
}

// EdgeNodes returns the indices of p_j and p'_j.
func (r *VCReduction) EdgeNodes(j int) (int, int) {
	return r.VC.N + 2*j, r.VC.N + 2*j + 1
}

// NewVCReduction builds the gadget for a Vertex Cover instance.
func NewVCReduction(vc *cover.VCInstance) (*VCReduction, error) {
	if vc.N < 2 || len(vc.Edges) == 0 {
		return nil, fmt.Errorf("constructions: VC reduction needs >= 2 vertices and >= 1 edge")
	}
	n := vc.N + 2*len(vc.Edges) + 1
	r := &VCReduction{VC: vc, U: n - 1}
	var ones [][2]int
	for a := 0; a < vc.N; a++ {
		for b := a + 1; b < vc.N; b++ {
			ones = append(ones, [2]int{a, b})
		}
	}
	for j, e := range vc.Edges {
		p, pp := r.EdgeNodes(j)
		for _, v := range []int{e[0], e[1]} {
			ones = append(ones, [2]int{v, p}, [2]int{v, pp})
		}
	}
	ot, err := metric.NewOneTwo(n, ones)
	if err != nil {
		return nil, err
	}
	r.Game = game.New(game.NewHost(ot), 1)
	return r, nil
}

// Profile builds the gadget's strategy profile for a given vertex cover:
// every 1-edge is bought by its lower-indexed endpoint, and u buys the
// (weight-2) edges towards the cover's vertex nodes. Thm 4: the profile
// is a Nash equilibrium iff the instance admits no smaller vertex cover.
func (r *VCReduction) Profile(coverSet []int) (game.Profile, error) {
	if !r.VC.IsVertexCover(coverSet) {
		return game.Profile{}, fmt.Errorf("constructions: %v is not a vertex cover", coverSet)
	}
	n := r.Game.N()
	p := game.EmptyProfile(n)
	for a := 0; a < vcN(r); a++ {
		for b := a + 1; b < vcN(r); b++ {
			p.Buy(a, b)
		}
	}
	for j, e := range r.VC.Edges {
		pj, ppj := r.EdgeNodes(j)
		for _, v := range []int{e[0], e[1]} {
			p.Buy(v, pj)
			p.Buy(v, ppj)
		}
	}
	for _, v := range coverSet {
		p.Buy(r.U, v)
	}
	return p, nil
}

func vcN(r *VCReduction) int { return r.VC.N }

// UCost is the paper's closed form for agent u's cost when buying edges
// to a cover of size k: 3N + 6m + k.
func (r *VCReduction) UCost(k int) float64 {
	return float64(3*r.VC.N + 6*len(r.VC.Edges) + k)
}

// SetCoverTree is the Thm 13 gadget (Fig. 4): a T–GNCG instance in which
// agent u's best response encodes Minimum Set Cover. The metric comes
// from a tree with center c, set nodes a_i (children of c at distance ε),
// element nodes p_j (children of one representative covering set node at
// distance L), bridge nodes b_i (children of u at distance (L-β)/2), and
// the edge (u,c) of weight L-ε.
//
// The current network G contains (b_i,u), (b_i,a_i), (a_i,p_j) for every
// covering pair, and (c,u) owned by c. Crucially c has NO network edge to
// any a_i: its only edge is the pendant (c,u), so c cannot serve as a
// shortcut from u to the set nodes (if it could, buying c would dominate
// buying set nodes and the reduction would collapse; the tree edges
// (c,a_i) exist only in the metric, not in G). u owns nothing, so its
// best response buys edges to exactly a minimum cover's set nodes (for
// L >> ε, L/3 > β > kε).
type SetCoverTree struct {
	SC   *cover.SCInstance
	Game *game.Game
	U    int
	L    float64
	Eps  float64
	Beta float64

	profile game.Profile
}

// SetNode returns the index of a_i.
func (r *SetCoverTree) SetNode(i int) int { return 2 + i }

// BridgeNode returns the index of b_i.
func (r *SetCoverTree) BridgeNode(i int) int { return 2 + len(r.SC.Sets) + i }

// ElementNode returns the index of p_j.
func (r *SetCoverTree) ElementNode(j int) int { return 2 + 2*len(r.SC.Sets) + j }

// Profile returns the gadget's fixed strategy profile (u owns nothing).
func (r *SetCoverTree) Profile() game.Profile { return r.profile.Clone() }

// NewSetCoverTree builds the gadget. Parameters must satisfy L/3 > beta >
// k*eps and eps << L.
func NewSetCoverTree(sc *cover.SCInstance, L, eps, beta float64) (*SetCoverTree, error) {
	k, m := sc.K, len(sc.Sets)
	if beta <= float64(k)*eps || beta >= L/3 {
		return nil, fmt.Errorf("constructions: need k*eps < beta < L/3 (k=%d eps=%v beta=%v L=%v)", k, eps, beta, L)
	}
	r := &SetCoverTree{SC: sc, L: L, Eps: eps, Beta: beta}
	// Node layout: u=0, c=1, a_i, b_i, p_j.
	n := 2 + 2*m + k
	r.U = 0
	var treeEdges []graph.Edge
	treeEdges = append(treeEdges, graph.Edge{U: 0, V: 1, W: L - eps}) // (u,c)
	for i := 0; i < m; i++ {
		treeEdges = append(treeEdges, graph.Edge{U: 1, V: r.SetNode(i), W: eps})
		treeEdges = append(treeEdges, graph.Edge{U: 0, V: r.BridgeNode(i), W: (L - beta) / 2})
	}
	// Each element hangs off its first covering set.
	rep := make([]int, k)
	for j := range rep {
		rep[j] = -1
	}
	for i, s := range sc.Sets {
		for _, e := range s {
			if rep[e] < 0 {
				rep[e] = i
			}
		}
	}
	for j := 0; j < k; j++ {
		treeEdges = append(treeEdges, graph.Edge{U: r.SetNode(rep[j]), V: r.ElementNode(j), W: L})
	}
	tm, err := metric.NewTreeMetric(n, treeEdges)
	if err != nil {
		return nil, err
	}
	r.Game = game.New(game.NewHost(tm), 1)

	p := game.EmptyProfile(n)
	for i := 0; i < m; i++ {
		p.Buy(r.BridgeNode(i), 0)            // (b_i, u)
		p.Buy(r.BridgeNode(i), r.SetNode(i)) // (b_i, a_i)
	}
	// c's only network edge is the pendant (c,u) it owns.
	p.Buy(1, 0)
	for i, s := range sc.Sets {
		for _, e := range s {
			p.Buy(r.SetNode(i), r.ElementNode(e))
		}
	}
	r.profile = p
	return r, nil
}

// DecodeStrategy maps a strategy of u back to chosen set indices,
// reporting any non-set-node purchases separately.
func (r *SetCoverTree) DecodeStrategy(strat []int) (sets []int, other []int) {
	m := len(r.SC.Sets)
	for _, v := range strat {
		if v >= 2 && v < 2+m {
			sets = append(sets, v-2)
		} else {
			other = append(other, v)
		}
	}
	return sets, other
}

// SetCoverGeo is the Thm 16 gadget (Fig. 7): the same Set Cover encoding
// realized by points in the plane under any p-norm. u sits at the origin;
// set nodes a_i lie on a short arc of the p-norm sphere of radius L;
// element nodes p_j on a short arc at radius 2L; bridge node b_i lies on
// the line through u and a_i on the OPPOSITE side of u at distance
// (L-β)/2 — that placement makes the direct edge (b_i,a_i) have length
// (L-β)/2 + L, so d_G(u,a_i) = 2L-β as the proof requires (with b_i
// between u and a_i the detour would collapse to L and every set node
// would already be optimally reachable). The network contains (b_i,u),
// (b_i,a_i) and (a_i,p_j) for covering pairs; u owns nothing.
type SetCoverGeo struct {
	SC   *cover.SCInstance
	Game *game.Game
	U    int
	L    float64
	Eps  float64
	Beta float64

	profile game.Profile
}

// SetNode returns the index of a_i.
func (r *SetCoverGeo) SetNode(i int) int { return 1 + i }

// BridgeNode returns the index of b_i.
func (r *SetCoverGeo) BridgeNode(i int) int { return 1 + len(r.SC.Sets) + i }

// ElementNode returns the index of p_j.
func (r *SetCoverGeo) ElementNode(j int) int { return 1 + 2*len(r.SC.Sets) + j }

// Profile returns the gadget's fixed strategy profile (u owns nothing).
func (r *SetCoverGeo) Profile() game.Profile { return r.profile.Clone() }

// NewSetCoverGeo builds the geometric gadget under the given p-norm
// (p >= 1 or +Inf).
func NewSetCoverGeo(sc *cover.SCInstance, L, eps, beta, p float64) (*SetCoverGeo, error) {
	k, m := sc.K, len(sc.Sets)
	if beta <= float64(k)*eps || beta >= L/3 {
		return nil, fmt.Errorf("constructions: need k*eps < beta < L/3 (k=%d eps=%v beta=%v L=%v)", k, eps, beta, L)
	}
	r := &SetCoverGeo{SC: sc, L: L, Eps: eps, Beta: beta}
	r.U = 0
	n := 1 + 2*m + k
	coords := make([][]float64, n)
	coords[0] = []float64{0, 0}
	// pSphere returns the point (x, y) with ||(x,y)||_p = radius for a
	// small transverse offset y >= 0: points near the sphere's
	// intersection with the positive x-axis.
	pSphere := func(radius, y float64) []float64 {
		if math.IsInf(p, 1) {
			return []float64{radius, y}
		}
		x := math.Pow(math.Pow(radius, p)-math.Pow(y, p), 1/p)
		return []float64{x, y}
	}
	offA := func(i int) float64 {
		if m == 1 {
			return 0
		}
		return eps * float64(i) / float64(m-1)
	}
	offP := func(j int) float64 {
		if k == 1 {
			return 0
		}
		return eps * float64(j) / float64(k-1)
	}
	for i := 0; i < m; i++ {
		a := pSphere(L, offA(i))
		coords[r.SetNode(i)] = a
		// b_i = -a_i scaled to radius (L-β)/2: beyond u on the a_i line.
		scale := (L - beta) / 2 / L
		coords[r.BridgeNode(i)] = []float64{-a[0] * scale, -a[1] * scale}
	}
	for j := 0; j < k; j++ {
		coords[r.ElementNode(j)] = pSphere(2*L, offP(j))
	}
	pts, err := metric.NewPoints(coords, p)
	if err != nil {
		return nil, err
	}
	r.Game = game.New(game.NewHost(pts), 1)
	prof := game.EmptyProfile(n)
	for i := 0; i < m; i++ {
		prof.Buy(r.BridgeNode(i), 0)
		prof.Buy(r.BridgeNode(i), r.SetNode(i))
	}
	for i, s := range sc.Sets {
		for _, e := range s {
			prof.Buy(r.SetNode(i), r.ElementNode(e))
		}
	}
	r.profile = prof
	return r, nil
}

// DecodeStrategy maps a strategy of u back to chosen set indices plus any
// non-set-node purchases.
func (r *SetCoverGeo) DecodeStrategy(strat []int) (sets []int, other []int) {
	m := len(r.SC.Sets)
	for _, v := range strat {
		if v >= 1 && v < 1+m {
			sets = append(sets, v-1)
		} else {
			other = append(other, v)
		}
	}
	return sets, other
}
