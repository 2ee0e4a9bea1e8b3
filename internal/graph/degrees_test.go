package graph

import (
	"bytes"
	"slices"
	"testing"
)

// checkDegrees asserts that Degrees()[v] and Degree(v) are d(v) as g's
// rows count it: out- plus in-row length for a directed graph, the
// out-row length for an undirected one.
func checkDegrees(t testing.TB, what string, g *Graph) {
	t.Helper()
	deg := g.Degrees()
	if len(deg) != g.NumVertices() {
		t.Fatalf("%s: %d degrees for %d vertices", what, len(deg), g.NumVertices())
	}
	for v := range deg {
		want := len(g.OutNeighbors(VID(v)))
		if g.Directed() {
			want += len(g.InNeighbors(VID(v)))
		}
		if int(deg[v]) != want || g.Degree(VID(v)) != want {
			t.Fatalf("%s: vertex %d has Degrees %d, Degree %d, rows %d", what, v, deg[v], g.Degree(VID(v)), want)
		}
	}
}

// TestDegreesMatchOffsets checks the degree array of a graph from every
// build path against its rows, and that an overlay rewired to another
// realization of the degree sequence shares its base's array.
func TestDegreesMatchOffsets(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, tc := range sparseIDCases {
			b := NewBuilder(directed)
			for _, id := range tc.vertices {
				b.AddVertex(id)
			}
			for _, p := range tc.pairs {
				b.AddEdge(p[0], p[1])
			}
			g, err := b.Build()
			if err != nil {
				continue // the empty cases have no degrees to check
			}
			checkDegrees(t, "Builder "+tc.name, g)
			ids := g.ExternalIDs()
			var arcs [][2]int64
			for _, p := range tc.pairs {
				if p[0] != p[1] {
					arcs = append(arcs, p)
				}
			}
			from, to := arcsOf(t, ids, arcs)
			ag, err := FromArcs(directed, ids, from, to)
			if err != nil {
				t.Fatalf("FromArcs %s: %v", tc.name, err)
			}
			checkDegrees(t, "FromArcs "+tc.name, ag)
		}

		g := buildTestGraph(t, directed)
		checkDegrees(t, "Builder", g)

		pairs := [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 2}, {2, 2}, {4, 1}}
		sb, err := NewStreamBuilder(directed, StreamOptions{DenseVertices: 6})
		if err != nil {
			t.Fatal(err)
		}
		sg, err := streamReplay(sb, pairs)
		if err != nil {
			t.Fatal(err)
		}
		checkDegrees(t, "StreamBuilder", sg)

		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		rg, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkDegrees(t, "ReadBinary", rg)
		if !slices.Equal(rg.Degrees(), g.Degrees()) {
			t.Fatalf("directed=%v: ReadBinary degrees %v, written %v", directed, rg.Degrees(), g.Degrees())
		}

		sub, err := Subgraph(g, []VID{0, 2, 3, 5})
		if err != nil {
			t.Fatal(err)
		}
		checkDegrees(t, "Subgraph", sub)
		u, err := Undirected(g)
		if err != nil {
			t.Fatal(err)
		}
		checkDegrees(t, "Undirected", u)

		// 1→2 and 4→5 swap heads to 1→5 and 4→2: every out- and
		// in-degree (every degree, undirected) stays the same.
		edges := g.EdgeList()
		a, c := mustLookup(t, g, 1), mustLookup(t, g, 4)
		b2, d := mustLookup(t, g, 2), mustLookup(t, g, 5)
		for i, e := range edges {
			switch e {
			case Edge{From: a, To: b2}:
				edges[i].To = d
			case Edge{From: c, To: d}:
				edges[i].To = b2
			}
		}
		o := NewOverlay(g)
		if err := o.FillFromEdges(edges); err != nil {
			t.Fatalf("directed=%v: rewired fill: %v", directed, err)
		}
		if o.HasEdge(a, b2) || !o.HasEdge(a, d) {
			t.Fatalf("directed=%v: the fill did not rewire 1→2 to 1→5", directed)
		}
		checkOverlayDegrees(t, o)
	}
}
