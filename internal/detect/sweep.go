package detect

import (
	"errors"
	"fmt"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/score"
)

// ErrBadSeed is returned when a sweep seed vertex is invalid.
var ErrBadSeed = errors.New("detect: invalid seed vertex")

// minSweepSize is the smallest prefix the sweep returns in place of the
// seed alone.
const minSweepSize = 3

// ConductanceSweep grows a community of at most maxSize vertices around
// the seed vertex greedily: at each step the frontier vertex whose
// inclusion minimizes conductance joins the set (ties go to the smaller
// vertex id), and the prefix with the lowest conductance overall is
// returned. This is the classical local-community baseline built on the
// paper's central metric (Eq. 3) — the "best possible community" around
// a user, against which curated circles can be contrasted.
//
// links[w] counts the arcs between w and the set in either direction
// (−1 marks members), so a joining vertex updates only its neighbours'
// counts and scoring a candidate is O(1): a step costs
// O(|frontier| + deg(v)) and the cut integers are exactly graph.Cut's.
func ConductanceSweep(g *graph.Graph, seed graph.VID, maxSize int) (score.Group, float64, error) {
	if seed < 0 || int(seed) >= g.NumVertices() {
		return score.Group{}, 0, fmt.Errorf("%w: %d", ErrBadSeed, seed)
	}
	links := make([]int32, g.NumVertices())
	var frontier, order []graph.VID // frontier: non-members with links > 0
	var internal, boundary int64
	add := func(v graph.VID) {
		l := int64(links[v])
		links[v] = -1
		internal += l
		boundary += int64(g.Degree(v)) - 2*l
		order = append(order, v)
		rows := [2][]graph.VID{g.OutNeighbors(v)}
		if g.Directed() {
			rows[1] = g.InNeighbors(v)
		}
		for _, row := range rows {
			for _, w := range row {
				if links[w] == 0 {
					frontier = append(frontier, w)
				}
				if links[w] >= 0 {
					links[w]++
				}
			}
		}
	}
	add(seed)
	bestPrefix, bestCond := 1, graphalgo.SweepConductance(internal, boundary)

	for len(order) < maxSize && len(frontier) > 0 {
		bi, stepCond := 0, 2.0
		for i, w := range frontier {
			l := int64(links[w])
			c := graphalgo.SweepConductance(internal+l, boundary+int64(g.Degree(w))-2*l)
			//lint:ignore floateq deterministic tie-break: equal conductance falls through to the smaller vertex id
			if c < stepCond || (c == stepCond && w < frontier[bi]) {
				bi, stepCond = i, c
			}
		}
		v := frontier[bi]
		frontier[bi] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		add(v) // stepCond is now the set's own conductance
		if stepCond < bestCond && len(order) >= minSweepSize {
			bestCond, bestPrefix = stepCond, len(order)
		}
	}

	return score.Group{
		Name:    fmt.Sprintf("sweep-seed%d", g.ExternalID(seed)),
		Members: order[:bestPrefix:bestPrefix],
	}, bestCond, nil
}

// PartitionModularity computes Newman's global modularity Q of a
// partition (a set of disjoint groups): the sum of per-group
// (m_C − E(m_C))/m terms under the configuration-model expectation —
// the standard quality measure for detected partitions.
func PartitionModularity(ctx *score.Context, groups []score.Group) float64 {
	if ctx.G.NumEdges() == 0 {
		return 0
	}
	m := float64(ctx.G.NumEdges())
	var q float64
	for _, grp := range groups {
		set := graph.SetOf(ctx.G, grp.Members)
		cut := graph.Cut(ctx.G, set)
		q += (float64(cut.Internal) - ctx.ChungLuExpectation(set)) / m
	}
	return q
}
