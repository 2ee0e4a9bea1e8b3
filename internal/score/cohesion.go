package score

import (
	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
)

// Cohesion is the triangle density of the induced subgraph: t(C) divided
// by the C(n_C, 3) possible triangles, following Friggeri et al.,
// "Triangles to Capture Social Cohesion". Cliques score 1, triangle-free
// sets (stars, trees) score 0, and the range is [0, 1] by construction.
// Directed graphs are measured on their undirected projection (a link in
// either direction connects two members), matching the package's other
// triangle-based metrics. High = community — or rather, high = socially
// cohesive: the paper's circles are expected to out-score size-matched
// random sets here the same way they do on conductance.
//
// The triangle count is graphalgo.SetTriangles, which walks only the
// members' rows, so scoring works unchanged on overlays (empirical null-model
// samples) and allocates nothing in steady state.
func Cohesion() Func {
	return Func{
		Name:  "cohesion",
		Label: "Cohesion (triangle density)",
		Eval: func(ctx *Context, set *graph.Set, _ graph.CutStats) float64 {
			n := int64(set.Len())
			if n < 3 {
				return 0
			}
			tri := graphalgo.SetTriangles(ctx.G, set)
			return float64(tri) / float64(n*(n-1)*(n-2)/6)
		},
	}
}
