package graph

import (
	"fmt"
	"slices"
)

// Undirected projects a directed graph onto an undirected one: every arc
// (u,v) becomes the edge {u,v}, and a bidirectional pair (u,v),(v,u)
// collapses into a single edge. This is the projection used by the paper's
// directed-vs-undirected deviation experiment (Section IV-B). Vertex IDs
// are preserved. Projecting an already-undirected graph returns a copy.
func Undirected(g *Graph) (*Graph, error) {
	from, to := arcList(g)
	u, err := FromArcs(false, g.ids, from, to)
	if err != nil {
		return nil, fmt.Errorf("undirected projection: %w", err)
	}
	return u, nil
}

// arcList returns what Edges visits, every arc or each undirected edge
// once, as parallel source and target slices.
func arcList(g *Graph) (from, to []VID) {
	from, to = make([]VID, 0, g.m), make([]VID, 0, g.m)
	n := VID(g.NumVertices())
	for u := VID(0); u < n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if g.directed || u < v {
				from, to = append(from, u), append(to, v)
			}
		}
	}
	return from, to
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
	// index[v] is 1 + v's VID in the subgraph, 0 for non-members; the
	// members are ranked in ascending order, so their IDs ascend too.
	index := make([]VID, g.NumVertices())
	sorted := slices.Clone(members)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	ids := make([]int64, len(sorted))
	for i, v := range sorted {
		index[v] = VID(i) + 1
		ids[i] = g.ids[v]
	}
	var from, to []VID
	for i, u := range sorted {
		for _, v := range g.OutNeighbors(u) {
			if j := index[v]; j != 0 && (g.directed || u < v) {
				from, to = append(from, VID(i)), append(to, j-1)
			}
		}
	}
	sub, err := FromArcs(g.directed, ids, from, to)
	if err != nil {
		return nil, fmt.Errorf("induced subgraph: %w", err)
	}
	return sub, nil
}

// identityIDs returns the ids table 0..n-1.
func identityIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}
