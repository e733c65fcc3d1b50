package dynamics

import (
	"fmt"

	"gncg/internal/bitset"
	"gncg/internal/game"
	"gncg/internal/parallel"
)

// FIPWitness is a cycle in the exhaustive improving-move graph: a
// sequence of profiles, each reachable from the previous by one agent's
// strictly improving strategy change, returning to its start. Its
// existence decides (negatively) the finite improvement property for the
// instance — the machine-checkable content of Thms 14 and 17.
type FIPWitness struct {
	Profiles []game.Profile // cycle states; first == last move target
	Agents   []int          // Agents[i] moves Profiles[i] -> Profiles[i+1]
}

// maxFIPAgents caps the exhaustive profile enumeration: the profile space
// has 2^(n(n-1)) states, so n = 4 gives 4096 and n = 5 about one million.
const maxFIPAgents = 5

// ExhaustiveFIP builds the full improving-move graph of the game — every
// strategy profile is a node, every strictly improving unilateral strategy
// change an arc — and searches it for a directed cycle. It returns a
// replayable witness if one exists; hasCycle=false is a PROOF that the
// instance has the finite improvement property (improving moves strictly
// descend an acyclic relation). Exponential in n²: refuses n > 5.
func ExhaustiveFIP(g *game.Game) (witness *FIPWitness, hasCycle bool, err error) {
	n := g.N()
	if n > maxFIPAgents {
		return nil, false, fmt.Errorf("dynamics: exhaustive FIP check supports n <= %d, got %d", maxFIPAgents, n)
	}
	perAgent := 1 << (n - 1) // strategies of one agent as masks over others
	total := 1
	for i := 0; i < n; i++ {
		total *= perAgent
	}

	// Cost of every (profile, agent): computed in parallel by profile.
	costs := parallel.Map(total, func(idx int) []float64 {
		s := game.NewState(g, DecodeProfile(idx, n, perAgent))
		out := make([]float64, n)
		for u := 0; u < n; u++ {
			out[u] = s.Cost(u)
		}
		return out
	})

	// DFS over the improving-move graph with tri-color marking; a back
	// edge closes a cycle.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, total)
	parent := make([]int32, total)
	parentAgent := make([]int8, total)
	for i := range parent {
		parent[i] = -1
	}

	successors := func(idx int) (next []int, agents []int) {
		base := costs[idx]
		for u := 0; u < n; u++ {
			cur := base[u]
			for alt := 0; alt < perAgent; alt++ {
				nidx := ReplaceAgentStrategy(idx, u, alt, perAgent)
				if nidx == idx {
					continue
				}
				if g.Improves(costs[nidx][u], cur) {
					next = append(next, nidx)
					agents = append(agents, u)
				}
			}
		}
		return next, agents
	}

	type frame struct {
		idx  int
		succ []int
		ags  []int
		pos  int
	}
	for start := 0; start < total; start++ {
		if color[start] != white {
			continue
		}
		stack := []frame{}
		color[start] = gray
		sn, sa := successors(start)
		stack = append(stack, frame{idx: start, succ: sn, ags: sa})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.pos >= len(f.succ) {
				color[f.idx] = black
				stack = stack[:len(stack)-1]
				continue
			}
			nxt := f.succ[f.pos]
			ag := f.ags[f.pos]
			f.pos++
			switch color[nxt] {
			case white:
				color[nxt] = gray
				parent[nxt] = int32(f.idx)
				parentAgent[nxt] = int8(ag)
				nn, na := successors(nxt)
				stack = append(stack, frame{idx: nxt, succ: nn, ags: na})
			case gray:
				// Back edge f.idx -> nxt: walk the stack portion from nxt
				// to f.idx to extract the cycle.
				w := &FIPWitness{}
				var chain []int
				var agentsChain []int
				cur := f.idx
				chain = append(chain, cur)
				for cur != nxt {
					agentsChain = append(agentsChain, int(parentAgent[cur]))
					cur = int(parent[cur])
					chain = append(chain, cur)
				}
				// chain is f.idx ... nxt (reverse order); reverse it and
				// close the loop with the back edge.
				for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
					chain[i], chain[j] = chain[j], chain[i]
				}
				for i, j := 0, len(agentsChain)-1; i < j; i, j = i+1, j-1 {
					agentsChain[i], agentsChain[j] = agentsChain[j], agentsChain[i]
				}
				agentsChain = append(agentsChain, ag) // back edge mover
				chain = append(chain, nxt)
				for _, idx := range chain {
					w.Profiles = append(w.Profiles, DecodeProfile(idx, n, perAgent))
				}
				w.Agents = agentsChain
				return w, true, nil
			}
		}
	}
	return nil, false, nil
}

// DecodeProfile expands a packed profile index of the exhaustive profile
// space: agent u's digit (base perAgent = 2^(n-1)) is its strategy mask,
// decoded by StrategySet.
func DecodeProfile(idx, n, perAgent int) game.Profile {
	p := game.Profile{S: make([]bitset.Set, n)}
	for u := range p.S {
		p.S[u] = StrategySet(n, u, idx%perAgent)
		idx /= perAgent
	}
	return p
}

// ReplaceAgentStrategy returns the profile index with agent u's digit
// replaced by alt.
func ReplaceAgentStrategy(idx, u, alt, perAgent int) int {
	pow := 1
	for i := 0; i < u; i++ {
		pow *= perAgent
	}
	digit := (idx / pow) % perAgent
	return idx + (alt-digit)*pow
}

// VerifyFIPWitness replays a witness: every step must strictly improve
// its mover and the final profile must equal the first.
func VerifyFIPWitness(g *game.Game, w *FIPWitness) bool {
	if len(w.Profiles) < 2 || len(w.Agents) != len(w.Profiles)-1 {
		return false
	}
	for i := 0; i+1 < len(w.Profiles); i++ {
		u := w.Agents[i]
		before := game.NewState(g, w.Profiles[i].Clone()).Cost(u)
		after := game.NewState(g, w.Profiles[i+1].Clone()).Cost(u)
		if !g.Improves(after, before) {
			return false
		}
		// Only agent u's strategy may change.
		for v := 0; v < g.N(); v++ {
			if v != u && !w.Profiles[i].S[v].Equal(w.Profiles[i+1].S[v]) {
				return false
			}
		}
	}
	return w.Profiles[0].Equal(w.Profiles[len(w.Profiles)-1])
}

// StrategySet expands one agent's strategy mask into its strategy set:
// bit i of mask selects the i-th other agent in increasing order.
func StrategySet(n, u, mask int) bitset.Set {
	s := bitset.New(n)
	bit := 0
	for v := 0; v < n; v++ {
		if v == u {
			continue
		}
		if mask&(1<<bit) != 0 {
			s.Add(v)
		}
		bit++
	}
	return s
}
