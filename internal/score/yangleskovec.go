package score

import "gpluscircles/internal/graph"

// ExtendedFuncs returns the Yang–Leskovec community-metric battery beyond
// the paper's four primary functions. The paper (Section II) bases its
// choice of the four on Yang & Leskovec's finding that the thirteen
// scoring functions correlate into four characteristic groups; the full
// battery is provided for the same cross-checks.
func ExtendedFuncs() []Func {
	return []Func{
		InternalDensity(),
		EdgesInside(),
		FractionOverMedianDegree(),
		TriangleParticipationRatio(),
		Expansion(),
		NormalizedCut(),
		MaximumODF(),
		AverageODF(),
		FlakeODF(),
		Separability(),
		SetClustering(),
		Cohesion(),
	}
}

// InternalDensity is m_C over the number of possible internal edges:
// n_C(n_C−1)/2 undirected, n_C(n_C−1) directed. High = community.
func InternalDensity() Func {
	return Func{
		Name:  "density",
		Label: "Internal Density",
		Eval: func(ctx *Context, _ *graph.Set, cut graph.CutStats) float64 {
			pairs := float64(cut.N) * float64(cut.N-1)
			if !ctx.G.Directed() {
				pairs /= 2
			}
			if pairs <= 0 {
				return 0
			}
			return float64(cut.Internal) / pairs
		},
	}
}

// EdgesInside is the raw internal edge count m_C. High = community.
func EdgesInside() Func {
	return Func{
		Name:  "edges",
		Label: "Edges Inside",
		Eval: func(_ *Context, _ *graph.Set, cut graph.CutStats) float64 {
			return float64(cut.Internal)
		},
	}
}

// FractionOverMedianDegree (FOMD) is the fraction of members whose
// internal degree exceeds the median degree of the whole graph.
// High = community.
func FractionOverMedianDegree() Func {
	return Func{
		Name:        "fomd",
		Label:       "Fraction over Median Degree",
		NeedsMedian: true,
		Eval: func(ctx *Context, set *graph.Set, cut graph.CutStats) float64 {
			if cut.N == 0 {
				return 0
			}
			med := ctx.MedianDegree()
			over := 0
			for _, v := range set.Members() {
				if float64(internalDegree(ctx.G, set, v)) > med {
					over++
				}
			}
			return float64(over) / float64(cut.N)
		},
	}
}

// TriangleParticipationRatio (TPR) is the fraction of members that close
// at least one triangle entirely inside C (edges in any direction).
// High = community.
func TriangleParticipationRatio() Func {
	return Func{
		Name:  "tpr",
		Label: "Triangle Participation Ratio",
		Eval: func(ctx *Context, set *graph.Set, cut graph.CutStats) float64 {
			if cut.N == 0 {
				return 0
			}
			g := ctx.G
			inTriad := 0
			marked := graph.NewSet(g.NumVertices())
			for _, u := range set.Members() {
				if participatesInTriangle(g, set, u, marked) {
					inTriad++
				}
			}
			return float64(inTriad) / float64(cut.N)
		},
	}
}

// Expansion is the number of boundary edges per member, c_C/n_C.
// Low = community.
func Expansion() Func {
	return Func{
		Name:             "expansion",
		Label:            "Expansion",
		LowerIsCommunity: true,
		Eval: func(_ *Context, _ *graph.Set, cut graph.CutStats) float64 {
			if cut.N == 0 {
				return 0
			}
			return float64(cut.Boundary) / float64(cut.N)
		},
	}
}

// NormalizedCut is conductance symmetrized over the set and its
// complement: c_C/(2m_C+c_C) + c_C/(2(m−m_C)+c_C). Low = community.
func NormalizedCut() Func {
	return Func{
		Name:             "ncut",
		Label:            "Normalized Cut",
		LowerIsCommunity: true,
		Eval: func(ctx *Context, _ *graph.Set, cut graph.CutStats) float64 {
			c := float64(cut.Boundary)
			d1 := 2*float64(cut.Internal) + c
			d2 := 2*float64(ctx.G.NumEdges()-cut.Internal) + c
			var out float64
			if d1 > 0 {
				out += c / d1
			}
			if d2 > 0 {
				out += c / d2
			}
			return out
		},
	}
}

// MaximumODF is the worst member's out-degree fraction:
// max over u in C of (edges from u leaving C) / d(u). Low = community.
func MaximumODF() Func {
	return Func{
		Name:             "maxodf",
		Label:            "Maximum Out-Degree Fraction",
		LowerIsCommunity: true,
		Eval: func(ctx *Context, set *graph.Set, _ graph.CutStats) float64 {
			var worst float64
			for _, v := range set.Members() {
				if f := odf(ctx.G, set, v); f > worst {
					worst = f
				}
			}
			return worst
		},
	}
}

// AverageODF is the mean out-degree fraction over members.
// Low = community.
func AverageODF() Func {
	return Func{
		Name:             "avgodf",
		Label:            "Average Out-Degree Fraction",
		LowerIsCommunity: true,
		Eval: func(ctx *Context, set *graph.Set, cut graph.CutStats) float64 {
			if cut.N == 0 {
				return 0
			}
			var sum float64
			for _, v := range set.Members() {
				sum += odf(ctx.G, set, v)
			}
			return sum / float64(cut.N)
		},
	}
}

// FlakeODF is the fraction of members with fewer internal than external
// edge endpoints (internal degree < d(v)/2). Low = community.
func FlakeODF() Func {
	return Func{
		Name:             "flakeodf",
		Label:            "Flake Out-Degree Fraction",
		LowerIsCommunity: true,
		Eval: func(ctx *Context, set *graph.Set, cut graph.CutStats) float64 {
			if cut.N == 0 {
				return 0
			}
			flaky := 0
			for _, v := range set.Members() {
				if 2*internalDegree(ctx.G, set, v) < ctx.G.Degree(v) {
					flaky++
				}
			}
			return float64(flaky) / float64(cut.N)
		},
	}
}

// Separability is the ratio of internal to boundary edges, m_C/c_C.
// High = community; returns m_C when the set has no boundary.
func Separability() Func {
	return Func{
		Name:  "separability",
		Label: "Separability",
		Eval: func(_ *Context, _ *graph.Set, cut graph.CutStats) float64 {
			if cut.Boundary == 0 {
				return float64(cut.Internal)
			}
			return float64(cut.Internal) / float64(cut.Boundary)
		},
	}
}

// SetClustering is the mean local clustering coefficient of the members
// measured inside C: the fraction of a member's in-set neighbour pairs
// that are themselves linked (edges in any direction). High = community.
func SetClustering() Func {
	return Func{
		Name:  "setcc",
		Label: "Clustering Coefficient (in-set)",
		Eval: func(ctx *Context, set *graph.Set, cut graph.CutStats) float64 {
			if cut.N == 0 {
				return 0
			}
			g := ctx.G
			scratch := graph.NewSet(g.NumVertices())
			var total float64
			for _, u := range set.Members() {
				total += localSetCC(g, set, u, scratch)
			}
			return total / float64(cut.N)
		},
	}
}

// localSetCC computes one member's clustering coefficient restricted to
// in-set neighbours, treating arcs as undirected links.
func localSetCC(g *graph.Graph, set *graph.Set, u graph.VID, scratch *graph.Set) float64 {
	scratch.Clear()
	mark := func(w graph.VID) {
		if w != u && set.Contains(w) {
			scratch.Add(w)
		}
	}
	for _, w := range g.OutNeighbors(u) {
		mark(w)
	}
	if g.Directed() {
		for _, w := range g.InNeighbors(u) {
			mark(w)
		}
	}
	k := scratch.Len()
	if k < 2 {
		scratch.Clear()
		return 0
	}
	var links int64
	for _, a := range scratch.Members() {
		for _, w := range g.OutNeighbors(a) {
			if w > a && scratch.Contains(w) {
				links++
				continue
			}
			// For directed graphs, count a pair once even when only the
			// reverse arc exists: check w < a pairs only when the
			// forward arc a->w is absent on the larger side.
			if g.Directed() && w < a && scratch.Contains(w) && !g.HasEdge(w, a) {
				links++
			}
		}
	}
	scratch.Clear()
	return 2 * float64(links) / (float64(k) * float64(k-1))
}

// internalDegree counts v's edge endpoints that stay inside the set:
// out-neighbours in C plus (directed) in-neighbours in C.
func internalDegree(g *graph.Graph, set *graph.Set, v graph.VID) int {
	d := 0
	for _, w := range g.OutNeighbors(v) {
		if set.Contains(w) {
			d++
		}
	}
	if g.Directed() {
		for _, w := range g.InNeighbors(v) {
			if set.Contains(w) {
				d++
			}
		}
	}
	return d
}

// odf is the fraction of v's edges that leave the set.
func odf(g *graph.Graph, set *graph.Set, v graph.VID) float64 {
	d := g.Degree(v)
	if d == 0 {
		return 0
	}
	return float64(d-internalDegree(g, set, v)) / float64(d)
}

// participatesInTriangle reports whether u closes a triangle with two
// other members of the set, treating arcs as undirected links. The
// scratch set must span the graph's vertex range and is cleared before
// returning.
func participatesInTriangle(g *graph.Graph, set *graph.Set, u graph.VID, scratch *graph.Set) bool {
	scratch.Clear()
	mark := func(w graph.VID) {
		if w != u && set.Contains(w) {
			scratch.Add(w)
		}
	}
	for _, w := range g.OutNeighbors(u) {
		mark(w)
	}
	if g.Directed() {
		for _, w := range g.InNeighbors(u) {
			mark(w)
		}
	}
	for _, a := range scratch.Members() {
		for _, w := range g.OutNeighbors(a) {
			if w != a && w != u && scratch.Contains(w) {
				scratch.Clear()
				return true
			}
		}
		if g.Directed() {
			for _, w := range g.InNeighbors(a) {
				if w != a && w != u && scratch.Contains(w) {
					scratch.Clear()
					return true
				}
			}
		}
	}
	scratch.Clear()
	return false
}
