package game

import (
	"fmt"
	"sort"

	"gncg/internal/bitset"
)

// Profile is a strategy profile: S[u] is the set of nodes agent u buys an
// edge towards. Profiles are mutable value types holding reference
// semantics on the underlying bit sets; use Clone for snapshots.
type Profile struct {
	S []bitset.Set
}

// EmptyProfile returns the profile where nobody buys anything.
func EmptyProfile(n int) Profile {
	p := Profile{S: make([]bitset.Set, n)}
	for u := range p.S {
		p.S[u] = bitset.New(n)
	}
	return p
}

// StarProfile returns the profile where `center` buys an edge to every
// other agent: the canonical connected seed for dynamics and the NE
// candidate of several of the paper's constructions (Thm 10, Thm 15,
// Thm 19).
func StarProfile(n, center int) Profile {
	p := EmptyProfile(n)
	for v := 0; v < n; v++ {
		if v != center {
			p.Buy(center, v)
		}
	}
	return p
}

// SpokeProfile returns the leaf-owned star: every agent except `center`
// buys its own edge towards center. The same network as StarProfile with
// the opposite ownership — the configuration in which each agent pays
// for exactly its own connection, the canonical equilibrium shape of the
// paper's tree constructions and the excess certificate's best case
// (every agent sits at its host-metric floor).
func SpokeProfile(n, center int) Profile {
	p := EmptyProfile(n)
	for v := 0; v < n; v++ {
		if v != center {
			p.Buy(v, center)
		}
	}
	return p
}

// PathProfile returns the profile where agent i buys the edge to i+1
// along the given vertex order.
func PathProfile(n int, order []int) Profile {
	p := EmptyProfile(n)
	for i := 0; i+1 < len(order); i++ {
		p.Buy(order[i], order[i+1])
	}
	return p
}

// OwnedEdge names a directed purchase: Owner buys the edge to To.
type OwnedEdge struct {
	Owner, To int
}

// ProfileFromOwnedEdges builds a profile from a purchase list.
func ProfileFromOwnedEdges(n int, edges []OwnedEdge) (Profile, error) {
	p := EmptyProfile(n)
	for _, e := range edges {
		if e.Owner < 0 || e.Owner >= n || e.To < 0 || e.To >= n || e.Owner == e.To {
			return Profile{}, fmt.Errorf("game: invalid owned edge %d->%d on %d agents", e.Owner, e.To, n)
		}
		p.S[e.Owner].Add(e.To)
	}
	return p, nil
}

// N returns the number of agents.
func (p Profile) N() int { return len(p.S) }

// Buys reports whether u buys the edge towards v.
func (p Profile) Buys(u, v int) bool { return p.S[u].Has(v) }

// HasEdge reports whether edge (u,v) exists in G(s), i.e. at least one
// endpoint buys it.
func (p Profile) HasEdge(u, v int) bool { return p.S[u].Has(v) || p.S[v].Has(u) }

// Buy adds v to S_u.
func (p Profile) Buy(u, v int) {
	if u == v {
		panic("game: agent cannot buy an edge to itself")
	}
	p.S[u].Add(v)
}

// Clone returns a deep copy.
func (p Profile) Clone() Profile {
	c := Profile{S: make([]bitset.Set, len(p.S))}
	for u := range p.S {
		c.S[u] = p.S[u].Clone()
	}
	return c
}

// Equal reports whether both profiles make exactly the same purchases.
func (p Profile) Equal(q Profile) bool {
	if len(p.S) != len(q.S) {
		return false
	}
	for u := range p.S {
		if !p.S[u].Equal(q.S[u]) {
			return false
		}
	}
	return true
}

// Hash folds the profile into a 64-bit value for visited-state tables.
func (p Profile) Hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for u := range p.S {
		h ^= p.S[u].Hash()
		h *= prime
		h ^= uint64(u + 1)
		h *= prime
	}
	return h
}

// OwnedEdges lists every purchase, sorted by (Owner, To). Useful for
// deterministic serialization and debugging output.
func (p Profile) OwnedEdges() []OwnedEdge {
	var out []OwnedEdge
	for u := range p.S {
		p.S[u].ForEach(func(v int) { out = append(out, OwnedEdge{u, v}) })
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Owner != out[j].Owner {
			return out[i].Owner < out[j].Owner
		}
		return out[i].To < out[j].To
	})
	return out
}

// EdgeCount returns the number of distinct undirected edges in G(s).
func (p Profile) EdgeCount() int {
	n := len(p.S)
	c := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if p.HasEdge(u, v) {
				c++
			}
		}
	}
	return c
}

// DoublyOwned lists edges bought by both endpoints — never beneficial in
// equilibrium (both owners pay the full price), and useful to flag.
func (p Profile) DoublyOwned() [][2]int {
	var out [][2]int
	n := len(p.S)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if p.Buys(u, v) && p.Buys(v, u) {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}
