// Package graph provides the weighted-graph substrate for the network
// creation game: adjacency-list graphs with float64 weights, single-source
// shortest paths (binary-heap Dijkstra), dynamic repair of Dijkstra rows
// across edge edits (Ramalingam–Reps style; see repair.go), parallel
// all-pairs shortest paths, a dense Floyd–Warshall used as a correctness
// cross-check, Prim's minimum spanning tree, and structural queries
// (connectivity, diameter, trees).
//
// Every shortest-path row is settled by one relaxation loop (drain in
// shortestpath.go): Dijkstra and DijkstraOverlay seed it with the source
// and the added edges, the repairs with the entries an edit changed.
//
// Absent connections are represented by +Inf distances. Edge weights must
// be non-negative (Dijkstra's precondition); zero weights are legal and do
// occur in the paper's non-metric constructions.
package graph

import (
	"fmt"
	"math"
)

// Edge is a weighted undirected edge.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected weighted graph in adjacency-list form.
// Parallel edges are not stored: AddEdge keeps the lighter weight.
type Graph struct {
	n   int
	adj [][]halfEdge
}

type halfEdge struct {
	to int
	w  float64
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]halfEdge, n)}
}

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e.U, e.V, e.W)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int {
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

// AddEdge inserts the undirected edge (u,v) with weight w. If the edge is
// already present the lighter weight wins. Self-loops and negative weights
// are rejected.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		panic("graph: self-loop")
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %v on (%d,%d)", w, u, v))
	}
	g.checkVertex(u)
	g.checkVertex(v)
	if i := g.findHalf(u, v); i >= 0 {
		if w < g.adj[u][i].w {
			g.adj[u][i].w = w
			g.adj[v][g.findHalf(v, u)].w = w
		}
		return
	}
	g.adj[u] = append(g.adj[u], halfEdge{v, w})
	g.adj[v] = append(g.adj[v], halfEdge{u, w})
}

// RemoveEdge deletes the undirected edge (u,v) if present and reports
// whether it existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	i := g.findHalf(u, v)
	if i < 0 {
		return false
	}
	g.adj[u] = deleteAt(g.adj[u], i)
	g.adj[v] = deleteAt(g.adj[v], g.findHalf(v, u))
	return true
}

// HasEdge reports whether the undirected edge (u,v) is present.
func (g *Graph) HasEdge(u, v int) bool { return g.findHalf(u, v) >= 0 }

// EdgeWeight returns the weight of edge (u,v), or +Inf if absent.
func (g *Graph) EdgeWeight(u, v int) float64 {
	if i := g.findHalf(u, v); i >= 0 {
		return g.adj[u][i].w
	}
	return math.Inf(1)
}

// Edges returns every undirected edge once, with U < V.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if u < h.to {
				out = append(out, Edge{u, h.to, h.w})
			}
		}
	}
	return out
}

// Neighbors calls fn(v, w) for every neighbor v of u with edge weight w.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	g.checkVertex(u)
	for _, h := range g.adj[u] {
		fn(h.to, h.w)
	}
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := range g.adj {
		c.adj[u] = append([]halfEdge(nil), g.adj[u]...)
	}
	return c
}

func (g *Graph) findHalf(u, v int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1
	}
	for i, h := range g.adj[u] {
		if h.to == v {
			return i
		}
	}
	return -1
}

func (g *Graph) checkVertex(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}

func deleteAt(s []halfEdge, i int) []halfEdge {
	s[i] = s[len(s)-1]
	return s[:len(s)-1]
}
