package score

import (
	"math/rand"
	"testing"

	"gpluscircles/internal/graph"
)

// Property tests for the paper's four scoring functions (Section V):
// randomized graphs and vertex sets must uphold each function's
// mathematical range and symmetry guarantees, and evaluating through an
// identity-rewired graph.Overlay must reproduce the *graph.Graph result
// bit for bit — the invariant the null-model scoring path relies on.

// randomGraph draws a simple G(n,p)-style graph with a fixed-seed rng.
func randomGraph(t *testing.T, rng *rand.Rand, directed bool) *graph.Graph {
	t.Helper()
	n := 2 + rng.Intn(40)
	p := 0.05 + rng.Float64()*0.4
	b := graph.NewBuilder(directed)
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				b.AddEdge(int64(u), int64(v))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build random graph: %v", err)
	}
	return g
}

// randomSet draws a non-empty proper subset of g's vertices when
// possible (n >= 2 guarantees one exists).
func randomSet(rng *rand.Rand, g *graph.Graph) []graph.VID {
	n := g.NumVertices()
	size := 1 + rng.Intn(n-1)
	perm := rng.Perm(n)
	members := make([]graph.VID, size)
	for i := 0; i < size; i++ {
		members[i] = graph.VID(perm[i])
	}
	return members
}

// complement returns V \ S.
func complement(g *graph.Graph, members []graph.VID) []graph.VID {
	in := make(map[graph.VID]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	out := make([]graph.VID, 0, g.NumVertices()-len(members))
	for v := 0; v < g.NumVertices(); v++ {
		if !in[graph.VID(v)] {
			out = append(out, graph.VID(v))
		}
	}
	return out
}

// maxDegree returns max over v of d(v).
func maxDegree(g *graph.Graph) float64 {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(graph.VID(v)); d > max {
			max = d
		}
	}
	return float64(max)
}

// identityGraphs returns the graph plus the graphs of two
// identity-rewired overlays: one reset to the parent adjacency, one
// refilled from the parent's own edge list through the exact-degree
// FillFromEdges path.
func identityGraphs(t *testing.T, g *graph.Graph) map[string]*graph.Graph {
	t.Helper()
	reset := graph.NewOverlay(g)
	filled := graph.NewOverlay(g)
	if err := filled.FillFromEdges(g.EdgeList()); err != nil {
		t.Fatalf("identity fill: %v", err)
	}
	return map[string]*graph.Graph{"graph": g, "overlay-reset": &reset.Graph, "overlay-filled": &filled.Graph}
}

func TestPaperFuncProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	funcs := PaperFuncs()
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		for _, directed := range []bool{false, true} {
			g := randomGraph(t, rng, directed)
			samples := identityGraphs(t, g)
			maxDeg := maxDegree(g)
			for setTrial := 0; setTrial < 4; setTrial++ {
				members := randomSet(rng, g)

				// Reference evaluation on the concrete graph.
				ctx := NewContext(g)
				set := graph.SetOf(g, members)
				cut := graph.Cut(g, set)
				ref := make(map[string]float64, len(funcs))
				for _, f := range funcs {
					ref[f.Name] = f.Eval(ctx, set, cut)
				}

				if c := ref["conductance"]; c < 0 || c > 1 {
					t.Fatalf("conductance %v outside [0,1] (directed=%v n=%d set=%d)",
						c, directed, g.NumVertices(), len(members))
				}
				if rc := ref["ratiocut"]; rc < 0 {
					t.Fatalf("ratiocut %v negative", rc)
				}
				if ad := ref["avgdeg"]; ad > maxDeg {
					t.Fatalf("avgdeg %v exceeds max degree %v", ad, maxDeg)
				}
				if q := ref["modularity"]; q < -1 || q > 1 {
					t.Fatalf("modularity %v outside [-1,1]", q)
				}

				// Ratio Cut is exactly symmetric in S vs V\S: the boundary
				// and the n_C·(n−n_C) product are both complement-invariant,
				// so the values must be bit-identical, not approximately so.
				co := complement(g, members)
				coSet := graph.SetOf(g, co)
				coCut := graph.Cut(g, coSet)
				if got := RatioCut().Eval(ctx, coSet, coCut); got != ref["ratiocut"] {
					t.Fatalf("ratiocut not symmetric: S=%v, V\\S=%v", ref["ratiocut"], got)
				}

				// Identity-rewired overlays must reproduce every score
				// bit for bit.
				for name, sample := range samples {
					vctx := NewContext(sample)
					vset := graph.SetOf(sample, members)
					vcut := graph.Cut(sample, vset)
					if vcut != cut {
						t.Fatalf("%s: cut %+v != graph cut %+v", name, vcut, cut)
					}
					for _, f := range funcs {
						if got := f.Eval(vctx, vset, vcut); got != ref[f.Name] {
							t.Fatalf("%s: %s = %v, want bit-identical %v",
								name, f.Name, got, ref[f.Name])
						}
					}
				}
			}
		}
	}
}

// TestPaperFuncDegenerateSets pins the documented zero conventions on
// empty and full sets, which the range properties above exclude.
func TestPaperFuncDegenerateSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, directed := range []bool{false, true} {
		g := randomGraph(t, rng, directed)
		ctx := NewContext(g)

		empty := graph.SetOf(g, nil)
		emptyCut := graph.Cut(g, empty)
		for _, f := range []Func{AverageDegree(), RatioCut(), Conductance()} {
			if got := f.Eval(ctx, empty, emptyCut); got != 0 {
				t.Errorf("directed=%v: %s(empty) = %v, want 0", directed, f.Name, got)
			}
		}

		all := make([]graph.VID, g.NumVertices())
		for v := range all {
			all[v] = graph.VID(v)
		}
		full := graph.SetOf(g, all)
		fullCut := graph.Cut(g, full)
		if got := RatioCut().Eval(ctx, full, fullCut); got != 0 {
			t.Errorf("directed=%v: ratiocut(V) = %v, want 0", directed, got)
		}
		if fullCut.Boundary != 0 {
			t.Errorf("directed=%v: boundary(V) = %d, want 0", directed, fullCut.Boundary)
		}
	}
}
