package core

import (
	"fmt"
	"slices"
	"testing"

	"gpluscircles/internal/graph"
)

// eachRegistryGraph calls fn with every registry data set's graph at two
// scales and seeds.
func eachRegistryGraph(t *testing.T, fn func(what string, g *graph.Graph)) {
	t.Helper()
	for _, opts := range []SuiteOptions{{Scale: 0.5, Seed: 1}, {Scale: 0.25, Seed: 9}} {
		s := NewSuite(opts)
		for _, name := range DatasetNames() {
			ds, err := s.DatasetByName(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fn(fmt.Sprintf("%s (scale %g, seed %d)", name, opts.Scale, opts.Seed), ds.Graph)
		}
	}
}

// requireSameGraph fails unless got has want's ids and rows.
func requireSameGraph(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	if got.Directed() != want.Directed() || got.NumEdges() != want.NumEdges() ||
		!slices.Equal(got.ExternalIDs(), want.ExternalIDs()) {
		t.Fatalf("%s: %d vertices, %d edges; want %d and %d with the same ids",
			what, got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := graph.VID(0); int(v) < want.NumVertices(); v++ {
		if !slices.Equal(got.OutNeighbors(v), want.OutNeighbors(v)) ||
			!slices.Equal(got.InNeighbors(v), want.InNeighbors(v)) {
			t.Fatalf("%s: rows of vertex %d differ", what, v)
		}
	}
}

// TestRegistryGraphsMatchBuilder rebuilds every registry graph from its
// ids and EdgeList through Builder, which ranks external IDs, and
// through FromArcs, which takes the VIDs, and requires both to equal the
// generated graph.
func TestRegistryGraphsMatchBuilder(t *testing.T) {
	eachRegistryGraph(t, func(what string, g *graph.Graph) {
		ids := g.ExternalIDs()
		edges := g.EdgeList()
		b := graph.NewBuilder(g.Directed())
		for _, id := range ids {
			b.AddVertex(id)
		}
		from, to := make([]graph.VID, len(edges)), make([]graph.VID, len(edges))
		for i, e := range edges {
			b.AddEdge(ids[e.From], ids[e.To])
			from[i], to[i] = e.From, e.To
		}
		viaBuilder, err := b.Build()
		if err != nil {
			t.Fatalf("%s: Builder: %v", what, err)
		}
		requireSameGraph(t, what+" through Builder", viaBuilder, g)
		viaArcs, err := graph.FromArcs(g.Directed(), ids, from, to)
		if err != nil {
			t.Fatalf("%s: FromArcs: %v", what, err)
		}
		requireSameGraph(t, what+" through FromArcs", viaArcs, g)
	})
}

// TestRegistryGraphsExactCapacity requires every registry graph and its
// undirected projection to keep no spare adjacency slots: the last
// vertex's rows end where the adjacency arrays end, so their capacity
// is the arrays' spare room plus their length.
func TestRegistryGraphsExactCapacity(t *testing.T) {
	check := func(what string, g *graph.Graph) {
		t.Helper()
		last := graph.VID(g.NumVertices() - 1)
		out, in := g.OutNeighbors(last), g.InNeighbors(last)
		if cap(out) != len(out) || cap(in) != len(in) {
			t.Fatalf("%s: last out-row %d of %d, in-row %d of %d slots used", what, len(out), cap(out), len(in), cap(in))
		}
	}
	eachRegistryGraph(t, func(what string, g *graph.Graph) {
		check(what, g)
		u, err := graph.Undirected(g)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		check(what+", undirected", u)
	})
}
