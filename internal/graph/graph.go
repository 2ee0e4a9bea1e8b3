// Package graph provides the social-graph substrate used throughout the
// reproduction: an immutable, memory-compact directed or undirected graph
// in compressed-sparse-row (CSR) form, a mutable Builder to construct it,
// vertex-ID interning between external (data set) IDs and dense internal
// indices, and set primitives used by the community scoring functions.
//
// Conventions, following the paper's nomenclature (Table I):
//
//   - n = NumVertices, m = NumEdges.
//   - In a directed graph, m counts arcs; the degree d(v) of a vertex is
//     the number of incident arcs, i.e. in-degree + out-degree.
//   - In an undirected graph, m counts edges once; d(v) is the number of
//     incident edges. Internally each undirected edge is stored in both
//     adjacency lists.
//   - Self-loops and duplicate edges are silently dropped at Build time;
//     the evaluated data sets are simple graphs.
package graph

import (
	"fmt"
	"sort"
)

// VID is a dense internal vertex index in [0, NumVertices).
type VID = int32

// Graph is an immutable simple graph in CSR form. The zero value is an
// empty graph with no vertices; use a Builder to construct non-trivial
// graphs. Graph values are safe for concurrent use by multiple goroutines
// because they are never mutated after construction.
type Graph struct {
	directed bool

	ids []int64 // dense index -> external ID, ascending

	outOff []int64 // len NumVertices+1; CSR row offsets into outAdj
	outAdj []VID   // sorted within each row

	// inOff/inAdj describe the reverse adjacency. For undirected graphs
	// they alias outOff/outAdj since adjacency is symmetric.
	inOff []int64
	inAdj []VID

	m int64 // arcs if directed, edges if undirected
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns n, the number of vertices.
func (g *Graph) NumVertices() int { return len(g.ids) }

// NumEdges returns m: the number of arcs for a directed graph, or the
// number of undirected edges for an undirected graph.
func (g *Graph) NumEdges() int64 { return g.m }

// ExternalID returns the data-set ID of the dense vertex v.
func (g *Graph) ExternalID(v VID) int64 { return g.ids[v] }

// Lookup resolves an external data-set ID to a dense vertex index by
// binary search over the ascending ids table. Graphs keep no interning
// map, so their ID overhead stays at 8 bytes per vertex.
func (g *Graph) Lookup(external int64) (VID, bool) {
	i := sort.Search(len(g.ids), func(i int) bool { return g.ids[i] >= external })
	if i < len(g.ids) && g.ids[i] == external {
		return VID(i), true
	}
	return 0, false
}

// MustLookup resolves an external ID, returning an error naming the ID if
// it is absent from the graph.
func (g *Graph) MustLookup(external int64) (VID, error) {
	v, ok := g.Lookup(external)
	if !ok {
		return 0, fmt.Errorf("vertex %d: not in graph", external)
	}
	return v, nil
}

// OutNeighbors returns the out-adjacency of v as a shared, sorted slice.
// For undirected graphs this is the full neighborhood. Callers must not
// modify the returned slice.
func (g *Graph) OutNeighbors(v VID) []VID {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the in-adjacency of v as a shared, sorted slice.
// For undirected graphs this equals OutNeighbors. Callers must not modify
// the returned slice.
func (g *Graph) InNeighbors(v VID) []VID {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// OutDegree returns the number of arcs leaving v (or, undirected, the
// number of incident edges).
func (g *Graph) OutDegree(v VID) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// InDegree returns the number of arcs entering v (or, undirected, the
// number of incident edges).
func (g *Graph) InDegree(v VID) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// Degree returns d(v) per the paper's nomenclature: in-degree plus
// out-degree for directed graphs, incident-edge count for undirected.
func (g *Graph) Degree(v VID) int {
	if g.directed {
		return g.OutDegree(v) + g.InDegree(v)
	}
	return g.OutDegree(v)
}

// HasEdge reports whether the arc (u,v) exists (directed), or whether the
// edge {u,v} exists (undirected). Runs in O(log deg(u)).
func (g *Graph) HasEdge(u, v VID) bool {
	adj := g.OutNeighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Edge is a single arc or edge between dense vertex indices.
type Edge struct {
	From, To VID
}

// Edges iterates over every arc (directed) or every edge once with
// From < To (undirected), invoking fn until it returns false.
func (g *Graph) Edges(fn func(e Edge) bool) {
	n := VID(g.NumVertices())
	for u := VID(0); u < n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if !g.directed && v < u {
				continue // report each undirected edge once
			}
			if !fn(Edge{From: u, To: v}) {
				return
			}
		}
	}
}

// EdgeList materializes Edges into a slice of m entries either way: every
// arc for a directed graph, or each undirected edge listed once with
// From < To. Intended for tests, small graphs, and seeding the null-model
// rewiring chain.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.m)
	g.Edges(func(e Edge) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Vertices returns the dense vertex indices 0..n-1 as a fresh slice.
func (g *Graph) Vertices() []VID {
	out := make([]VID, g.NumVertices())
	for i := range out {
		out[i] = VID(i)
	}
	return out
}

// ExternalIDs returns a copy of the dense-index -> external-ID table.
func (g *Graph) ExternalIDs() []int64 {
	out := make([]int64, len(g.ids))
	copy(out, g.ids)
	return out
}

// DegreeSequence returns d(v) for every vertex in dense-index order.
func (g *Graph) DegreeSequence() []int {
	out := make([]int, g.NumVertices())
	for v := range out {
		out[v] = g.Degree(VID(v))
	}
	return out
}

// InDegreeSequence returns the in-degree of every vertex in dense-index
// order. For undirected graphs this equals DegreeSequence.
func (g *Graph) InDegreeSequence() []int {
	out := make([]int, g.NumVertices())
	for v := range out {
		out[v] = g.InDegree(VID(v))
	}
	return out
}

// OutDegreeSequence returns the out-degree of every vertex in dense-index
// order. For undirected graphs this equals DegreeSequence.
func (g *Graph) OutDegreeSequence() []int {
	out := make([]int, g.NumVertices())
	for v := range out {
		out[v] = g.OutDegree(VID(v))
	}
	return out
}

// MeanDegree returns the average of DegreeSequence: 2m/n for undirected
// graphs and 2m/n for directed graphs as well (each arc contributes one
// out- and one in-degree unit).
func (g *Graph) MeanDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(n)
}

// MeanInDegree returns m/n for directed graphs (2m/n undirected).
func (g *Graph) MeanInDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	var total int64
	for v := 0; v < n; v++ {
		total += int64(g.InDegree(VID(v)))
	}
	return float64(total) / float64(n)
}

// MeanOutDegree returns m/n for directed graphs (2m/n undirected).
func (g *Graph) MeanOutDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	var total int64
	for v := 0; v < n; v++ {
		total += int64(g.OutDegree(VID(v)))
	}
	return float64(total) / float64(n)
}
