package graphalgo

import (
	"errors"
	"fmt"

	"gpluscircles/internal/graph"
)

// Sweep-cut errors. A bad ordering is a programming error in the caller
// (orderings come from score vectors over real vertices), but the kernel
// validates anyway so a fuzzer-found corruption fails loudly instead of
// silently corrupting the mark bitmap across reuses.
var (
	// ErrSweepDuplicate is returned when an ordering names a vertex twice.
	ErrSweepDuplicate = errors.New("graphalgo: sweep ordering repeats a vertex")
	// ErrSweepRange is returned when an ordering names a vertex outside
	// the view's vertex range.
	ErrSweepRange = errors.New("graphalgo: sweep ordering vertex out of range")
)

// SweepCutter computes the conductance of every prefix of a vertex
// ordering — the sweep-cut primitive of local spectral clustering — with
// incremental cut/volume updates: adding one vertex costs one adjacency
// scan, so a whole sweep is O(vol(order)) instead of the O(k·vol) a
// per-prefix rescoring would pay. The per-prefix values are exactly the
// integers graph.Cut would count, so the resulting conductances are
// bit-identical to brute-force rescoring (the property tests assert
// this, and FuzzSweepCut keeps it honest on arbitrary orderings).
//
// A SweepCutter is a reusable workspace for one vertex-range size: the
// membership bitmap persists across calls and is cleaned up after each
// sweep, so steady-state sweeps allocate only when the caller-provided
// destination slice grows. It is not safe for concurrent use; parallel
// sweeps use one SweepCutter per worker.
type SweepCutter struct {
	inSet []bool
}

// NewSweepCutter returns a workspace for views with up to n vertices.
func NewSweepCutter(n int) *SweepCutter {
	return &SweepCutter{inSet: make([]bool, n)}
}

// SweepConductance is the paper's Eq. 3 on raw cut integers, shared by
// every sweep (this kernel, detect.ConductanceSweep and the ncp overlay
// points). The emptiness test stays in the integer domain (floateq). An
// edgeless set scores 1, the worst conductance, so a sweep never prefers
// it. This differs from score.Conductance, which returns 0 for an
// edgeless set.
func SweepConductance(internal, boundary int64) float64 {
	if internal == 0 && boundary == 0 {
		return 1
	}
	return float64(boundary) / (2*float64(internal) + float64(boundary))
}

// Conductances computes the conductance of every prefix of order within
// g: out[i] is the conductance of the set {order[0], …, order[i]}. The
// result is appended to dst[:0] (pass nil to allocate; pass the previous
// result to reuse its capacity). The ordering must not repeat a vertex
// and every vertex must lie in the view's range; a violation returns an
// error and leaves the workspace clean.
//
// For directed views a prefix's internal count is arcs with both
// endpoints inside and its boundary is arcs crossing in either
// direction, the graph.Cut convention, so sweeping a directed graph and
// scoring the chosen prefix with score.Conductance agree exactly on any
// prefix with at least one incident arc (see SweepConductance).
func (sc *SweepCutter) Conductances(g graph.View, order []graph.VID, dst []float64) ([]float64, error) {
	n := g.NumVertices()
	if len(sc.inSet) < n {
		sc.inSet = make([]bool, n)
	}
	dst = dst[:0]
	directed := g.Directed()
	var internal, boundary int64
	for i, w := range order {
		if w < 0 || int(w) >= n {
			sc.unmark(order[:i])
			return nil, fmt.Errorf("%w: vertex %d with %d vertices", ErrSweepRange, w, n)
		}
		if sc.inSet[w] {
			sc.unmark(order[:i])
			return nil, fmt.Errorf("%w: vertex %d", ErrSweepDuplicate, w)
		}
		// linksIn counts the arcs between w and the current prefix: they
		// switch from boundary to internal, and w's remaining incident
		// arcs become boundary — so the deltas need only w's adjacency.
		var linksIn int64
		for _, x := range g.OutNeighbors(w) {
			if sc.inSet[x] {
				linksIn++
			}
		}
		if directed {
			for _, x := range g.InNeighbors(w) {
				if sc.inSet[x] {
					linksIn++
				}
			}
		}
		sc.inSet[w] = true
		internal += linksIn
		boundary += int64(g.Degree(w)) - 2*linksIn
		dst = append(dst, SweepConductance(internal, boundary))
	}
	sc.unmark(order)
	return dst, nil
}

// unmark clears the membership bits of a processed prefix so the
// workspace is reusable without an O(n) wipe.
func (sc *SweepCutter) unmark(order []graph.VID) {
	for _, w := range order {
		sc.inSet[w] = false
	}
}
