package graph

import "fmt"

// Undirected projects a directed graph onto an undirected one: every arc
// (u,v) becomes the edge {u,v}, and a bidirectional pair (u,v),(v,u)
// collapses into a single edge. This is the projection used by the paper's
// directed-vs-undirected deviation experiment (Section IV-B). Vertex IDs
// are preserved. Projecting an already-undirected graph returns a copy.
func Undirected(g *Graph) (*Graph, error) {
	b := NewBuilder(false)
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.ExternalID(VID(v)))
	}
	g.Edges(func(e Edge) bool {
		b.AddEdge(g.ExternalID(e.From), g.ExternalID(e.To))
		return true
	})
	u, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("undirected projection: %w", err)
	}
	return u, nil
}

// ReciprocalEdgeCount returns, for a directed graph, the number of arcs
// (u,v) whose reverse arc (v,u) also exists. Reciprocity = result / m.
// Each vertex u contributes |out(u) ∩ in(u)|, counted by one merge walk
// over its two sorted rows.
func ReciprocalEdgeCount(g *Graph) int64 {
	if !g.directed {
		return 2 * g.m
	}
	var count int64
	n := VID(g.NumVertices())
	for u := VID(0); u < n; u++ {
		out, in := g.OutNeighbors(u), g.InNeighbors(u)
		for i, j := 0, 0; i < len(out) && j < len(in); {
			switch {
			case out[i] < in[j]:
				i++
			case out[i] > in[j]:
				j++
			default:
				count++
				i++
				j++
			}
		}
	}
	return count
}

// Subgraph induces the subgraph on the given dense vertex indices,
// preserving external IDs. Edges with an endpoint outside the set are
// dropped. The result may contain isolated vertices.
func Subgraph(g *Graph, members []VID) (*Graph, error) {
	s := SetOf(g, members)
	b := NewBuilder(g.directed)
	for _, v := range s.Members() {
		b.AddVertex(g.ExternalID(v))
	}
	for _, u := range s.Members() {
		for _, v := range g.OutNeighbors(u) {
			if !s.Contains(v) {
				continue
			}
			if !g.directed && v < u {
				continue
			}
			b.AddEdge(g.ExternalID(u), g.ExternalID(v))
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("induced subgraph: %w", err)
	}
	return sub, nil
}

// Relabel returns a copy of g whose external IDs are replaced by the dense
// indices 0..n-1. Useful before writing compact edge lists.
func Relabel(g *Graph) (*Graph, error) {
	b := NewBuilder(g.directed)
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(int64(v))
	}
	g.Edges(func(e Edge) bool {
		b.AddEdge(int64(e.From), int64(e.To))
		return true
	})
	r, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("relabel: %w", err)
	}
	return r, nil
}
