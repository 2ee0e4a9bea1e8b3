package nullmodel

import (
	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
)

// TriangleExpectation returns the mean in-set triangle count t(C) of the
// set across the estimator's samples, accumulated in sample order so the
// value is deterministic for a given estimator regardless of the caller.
// Because SetTriangles walks each overlay's adjacency directly (no DAG
// build, no materialization), the cost is O(samples · vol(C)) and the
// steady state allocates nothing.
//
// Together with score.Cohesion this gives the empirical null for triangle
// density: divide by C(n_C, 3) to compare against a circle's cohesion.
func (e *Estimator) TriangleExpectation(set *graph.Set) float64 {
	if len(e.overlays) == 0 {
		return 0
	}
	var total float64
	for _, ov := range e.overlays {
		total += float64(graphalgo.SetTriangles(&ov.Graph, set))
	}
	return total / float64(len(e.overlays))
}

// ChungLuTriangles returns the analytic expected in-set triangle count
// t(C) under the Chung–Lu model, the closed-form counterpart of
// TriangleExpectation. With p(u,v) ≈ d_u·d_v/(2m) and x_v = d_v², the
// expected count over unordered member triples is
//
//	E[t(C)] = Σ_{u<v<w ∈ C} x_u·x_v·x_w / (2m)³
//	        = (e₁³ − 3·e₁·e₂ + 2·e₃) / 6 / (2m)³,  e_k = Σ_{v∈C} d_v^(2k),
//
// which costs O(n_C) instead of O(n_C³). The edge probabilities are used
// without the min(1, ·) clamp, so hub-heavy sets can overestimate; the
// empirical TriangleExpectation is the reference when that matters.
// Directed graphs use total degree (in+out) against 2m arc endpoints,
// mirroring how triangles are counted on the undirected projection.
func ChungLuTriangles(g *graph.Graph, set *graph.Set) float64 {
	if set.Len() < 3 || g.NumEdges() == 0 {
		return 0
	}
	var e1, e2, e3 float64
	for _, v := range set.Members() {
		x := float64(g.Degree(v))
		x *= x
		e1 += x
		e2 += x * x
		e3 += x * x * x
	}
	vol := 2 * float64(g.NumEdges())
	return (e1*e1*e1 - 3*e1*e2 + 2*e3) / 6 / (vol * vol * vol)
}
