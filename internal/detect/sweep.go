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

// SweepOptions tunes the greedy conductance sweep.
type SweepOptions struct {
	// MaxSize bounds the community size explored (default 200).
	MaxSize int
	// MinSize is the smallest community the sweep may return (default 3).
	MinSize int
}

func (o SweepOptions) withDefaults() SweepOptions {
	if o.MaxSize <= 0 {
		o.MaxSize = 200
	}
	if o.MinSize <= 0 {
		o.MinSize = 3
	}
	return o
}

// ConductanceSweep grows a community around the seed vertex greedily:
// at each step the frontier vertex whose inclusion minimizes conductance
// joins the set, and the prefix with the lowest conductance overall is
// returned. This is the classical local-community baseline built on the
// paper's central metric (Eq. 3) — the "best possible community" around
// a user, against which curated circles can be contrasted.
func ConductanceSweep(g *graph.Graph, seed graph.VID, opts SweepOptions) (score.Group, float64, error) {
	if seed < 0 || int(seed) >= g.NumVertices() {
		return score.Group{}, 0, fmt.Errorf("%w: %d", ErrBadSeed, seed)
	}
	opts = opts.withDefaults()

	set := graph.NewSet(g.NumVertices())
	set.Add(seed)

	// Track internal/boundary arc counts incrementally.
	cut := graph.Cut(g, set)
	internal := cut.Internal
	boundary := cut.Boundary

	order := []graph.VID{seed}
	bestPrefix := 1
	bestCond := graphalgo.SweepConductance(internal, boundary)

	// frontier holds candidate vertices adjacent to the set.
	inFrontier := graph.NewSet(g.NumVertices())
	addFrontier := func(u graph.VID) {
		push := func(w graph.VID) {
			if !set.Contains(w) && !inFrontier.Contains(w) {
				inFrontier.Add(w)
			}
		}
		for _, w := range g.OutNeighbors(u) {
			push(w)
		}
		if g.Directed() {
			for _, w := range g.InNeighbors(u) {
				push(w)
			}
		}
	}
	addFrontier(seed)

	// delta computes the internal/boundary changes of adding w.
	delta := func(w graph.VID) (dInternal, dBoundary int64) {
		var toSet, fromSet int64
		for _, x := range g.OutNeighbors(w) {
			if set.Contains(x) {
				toSet++
			}
		}
		if g.Directed() {
			for _, x := range g.InNeighbors(w) {
				if set.Contains(x) {
					fromSet++
				}
			}
		} else {
			fromSet = 0 // undirected adjacency already counted in toSet
		}
		linksIn := toSet + fromSet
		dInternal = linksIn
		// w's edges to the set stop being boundary; its remaining edges
		// become boundary.
		dBoundary = int64(g.Degree(w)) - 2*linksIn
		return dInternal, dBoundary
	}

	for set.Len() < opts.MaxSize {
		var best graph.VID = -1
		bestNewCond := 2.0
		var bestDI, bestDB int64
		for _, w := range inFrontier.Members() {
			if set.Contains(w) {
				continue
			}
			di, db := delta(w)
			if di == 0 {
				continue // only attached vertices qualify
			}
			c := graphalgo.SweepConductance(internal+di, boundary+db)
			//lint:ignore floateq deterministic tie-break: equal conductance falls through to the smaller vertex id
			if c < bestNewCond || (c == bestNewCond && (best == -1 || w < best)) {
				best, bestNewCond = w, c
				bestDI, bestDB = di, db
			}
		}
		if best < 0 {
			break
		}
		set.Add(best)
		order = append(order, best)
		internal += bestDI
		boundary += bestDB
		addFrontier(best)
		if c := graphalgo.SweepConductance(internal, boundary); c < bestCond && set.Len() >= opts.MinSize {
			bestCond = c
			bestPrefix = set.Len()
		}
	}

	members := make([]graph.VID, bestPrefix)
	copy(members, order[:bestPrefix])
	return score.Group{
		Name:    fmt.Sprintf("sweep-seed%d", g.ExternalID(seed)),
		Members: members,
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
