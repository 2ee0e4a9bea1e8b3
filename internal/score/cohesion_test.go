package score

import (
	"math/rand"
	"testing"

	"gpluscircles/internal/graph"
)

func cohesionOf(t *testing.T, g *graph.Graph, members []graph.VID) float64 {
	t.Helper()
	ctx := NewContext(g)
	set := graph.SetOf(g, members)
	return Cohesion().Eval(ctx, set, graph.Cut(g, set))
}

func TestCohesionClique(t *testing.T) {
	// K5: every triple closes, cohesion must be exactly 1.
	var edges [][2]int64
	for i := int64(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int64{i, j})
		}
	}
	g, err := graph.FromEdges(false, edges)
	if err != nil {
		t.Fatal(err)
	}
	members := []graph.VID{0, 1, 2, 3, 4}
	if got := cohesionOf(t, g, members); got != 1 {
		t.Errorf("K5 cohesion = %v, want 1", got)
	}
}

func TestCohesionDirectedClique(t *testing.T) {
	// Directed K4 with one arc per pair: the undirected projection is a
	// clique, so cohesion is 1 regardless of arc orientation.
	g, err := graph.FromEdges(true, [][2]int64{
		{0, 1}, {2, 0}, {0, 3}, {1, 2}, {3, 1}, {2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cohesionOf(t, g, []graph.VID{0, 1, 2, 3}); got != 1 {
		t.Errorf("directed K4 cohesion = %v, want 1", got)
	}
}

func TestCohesionStarAndTree(t *testing.T) {
	star, err := graph.FromEdges(false, [][2]int64{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := cohesionOf(t, star, []graph.VID{0, 1, 2, 3, 4}); got != 0 {
		t.Errorf("star cohesion = %v, want 0", got)
	}
	tree, err := graph.FromEdges(false, [][2]int64{{0, 1}, {1, 2}, {1, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := cohesionOf(t, tree, []graph.VID{0, 1, 2, 3, 4}); got != 0 {
		t.Errorf("tree cohesion = %v, want 0", got)
	}
}

func TestCohesionTinySets(t *testing.T) {
	g, err := graph.FromEdges(false, [][2]int64{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, members := range [][]graph.VID{{}, {0}, {0, 1}} {
		if got := cohesionOf(t, g, members); got != 0 {
			t.Errorf("|C|=%d cohesion = %v, want 0", len(members), got)
		}
	}
	if got := cohesionOf(t, g, []graph.VID{0, 1, 2}); got != 1 {
		t.Errorf("triangle cohesion = %v, want 1", got)
	}
}

// Property: cohesion stays in [0, 1] on random graphs and sets, directed
// and undirected.
func TestCohesionRange(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng, seed%2 == 0)
		members := randomSet(rng, g)
		got := cohesionOf(t, g, members)
		if got < 0 || got > 1 {
			t.Fatalf("seed %d: cohesion %v outside [0,1]", seed, got)
		}
	}
}

// Evaluating cohesion through an identity overlay must reproduce the
// parent-graph score bit for bit — the invariant the empirical null
// model's overlay scoring relies on.
func TestCohesionOverlayIdentity(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g := randomGraph(t, rng, seed%2 == 0)
		members := randomSet(rng, g)
		want := cohesionOf(t, g, members)
		got := cohesionOf(t, &graph.NewOverlay(g).Graph, members)
		//lint:ignore floateq identical integer counts must produce identical floats
		if got != want {
			t.Fatalf("seed %d: overlay cohesion %v, parent %v", seed, got, want)
		}
	}
}

func TestCohesionRegistered(t *testing.T) {
	fns, err := ByName("cohesion")
	if err != nil {
		t.Fatalf("ByName(cohesion): %v", err)
	}
	if len(fns) != 1 || fns[0].Name != "cohesion" || fns[0].LowerIsCommunity {
		t.Fatalf("unexpected registry entry: %+v", fns)
	}
	found := false
	for _, f := range ExtendedFuncs() {
		if f.Name == "cohesion" {
			found = true
		}
	}
	if !found {
		t.Error("cohesion missing from ExtendedFuncs")
	}
}
