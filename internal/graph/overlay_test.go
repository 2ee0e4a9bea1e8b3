package graph

import (
	"math/rand"
	"testing"
)

func buildTestGraph(t *testing.T, directed bool) *Graph {
	t.Helper()
	b := NewBuilder(directed)
	edges := [][2]int64{
		{1, 2}, {2, 3}, {3, 4}, {4, 1}, {1, 3}, {4, 5}, {5, 6}, {6, 1},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	b.AddVertex(99) // isolated vertex exercises empty rows
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOverlayStartsEqualToParent(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := buildTestGraph(t, directed)
		o := NewOverlay(g)
		if edgeFingerprint(&o.Graph) != edgeFingerprint(g) {
			t.Errorf("directed=%v: fresh overlay differs from parent", directed)
		}
		if o.Base() != g || g.Base() != g {
			t.Error("Base() mismatch")
		}
	}
}

func TestOverlayFillFromEdgesRoundTrip(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := buildTestGraph(t, directed)
		o := NewOverlay(g)
		// Refill with the parent's own edge list in shuffled order: the
		// result must equal the parent exactly (rows re-sorted).
		edges := g.EdgeList()
		rng := rand.New(rand.NewSource(7))
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		if err := o.FillFromEdges(edges); err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
		if edgeFingerprint(&o.Graph) != edgeFingerprint(g) {
			t.Errorf("directed=%v: refilled overlay differs from parent", directed)
		}
		if !o.HasEdge(mustLookup(t, g, 1), mustLookup(t, g, 2)) {
			t.Error("HasEdge lost an edge after refill")
		}
	}
}

func TestOverlayFillRejectsDegreeMismatch(t *testing.T) {
	g := buildTestGraph(t, true)
	o := NewOverlay(g)
	edges := g.EdgeList()
	// Redirect one arc's tail to a different vertex: some row overflows
	// (or ends underfull) and the fill must fail without panicking.
	moved := false
	for j := 1; j < len(edges); j++ {
		if edges[j].From != edges[0].From {
			edges[0].From = edges[j].From
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("test graph needs arcs with distinct tails")
	}
	if err := o.FillFromEdges(edges); err == nil {
		t.Fatal("expected degree-mismatch error")
	}
}

func TestOverlayCutMatchesMaterialized(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := buildTestGraph(t, directed)
		o := NewOverlay(g)
		// Swap-like perturbation: reverse the list (undirected) keeps the
		// same multiset, so Cut must agree with the parent.
		if err := o.FillFromEdges(g.EdgeList()); err != nil {
			t.Fatal(err)
		}
		set := SetOf(g, []VID{0, 1, 2})
		cg, co := Cut(g, set), Cut(&o.Graph, set)
		if cg != co {
			t.Errorf("directed=%v: Cut mismatch graph=%+v overlay=%+v", directed, cg, co)
		}
		mat, err := o.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if cm := Cut(mat, set); cm != co {
			t.Errorf("directed=%v: materialized Cut mismatch %+v vs %+v", directed, cm, co)
		}
	}
}

func TestOverlayArenaReuse(t *testing.T) {
	g := buildTestGraph(t, false)
	a := NewOverlayArena(g)
	o1 := a.Get()
	a.Put(o1)
	o2 := a.Get()
	if o2 != o1 {
		// sync.Pool gives no hard guarantee, but single-goroutine
		// get/put/get reuse holds in practice; treat a miss as a skip,
		// not a failure, to stay robust against runtime changes.
		t.Skip("pool did not reuse the overlay; nothing to assert")
	}
	o2.Reset()
	if edgeFingerprint(&o2.Graph) != edgeFingerprint(g) {
		t.Error("recycled overlay Reset() differs from parent")
	}
}

func TestOverlayArenaRejectsForeignOverlay(t *testing.T) {
	g1 := buildTestGraph(t, false)
	g2 := buildTestGraph(t, true)
	a := NewOverlayArena(g1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Put of a foreign overlay")
		}
	}()
	a.Put(NewOverlay(g2))
}

func mustLookup(t *testing.T, g *Graph, id int64) VID {
	t.Helper()
	v, ok := g.Lookup(id)
	if !ok {
		t.Fatalf("vertex %d missing", id)
	}
	return v
}
