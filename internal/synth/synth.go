// Package synth generates the synthetic stand-ins for the paper's four
// data sets (Table III) plus the Magno-style BFS-crawl graph of Table II.
// The real crawls are not redistributable, so each generator plants the
// structural properties the evaluation actually measures; DESIGN.md
// documents every substitution. All generators are deterministic given
// their config's Seed.
package synth

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/score"
)

// GroupKind distinguishes the two group-formation mechanisms the paper
// contrasts.
type GroupKind int

const (
	// Circles are creator-curated groups drawn from an ego network
	// (Google+ circles, Twitter lists).
	Circles GroupKind = iota + 1
	// Communities are member-joined interest groups (LiveJournal, Orkut).
	Communities
)

// String implements fmt.Stringer.
func (k GroupKind) String() string {
	switch k {
	case Circles:
		return "Circles"
	case Communities:
		return "Communities"
	default:
		return fmt.Sprintf("GroupKind(%d)", int(k))
	}
}

// Dataset is a generated social graph with its group structure.
type Dataset struct {
	// Name identifies the data set in reports ("Google+", "Twitter", ...).
	Name string
	// Graph is the social graph.
	Graph *graph.Graph
	// Groups are the circles or communities, with dense vertex indices.
	Groups []score.Group
	// Kind reports whether Groups are circles or communities.
	Kind GroupKind
	// EgoMembership maps each vertex to the number of ego networks that
	// contain it (Fig. 1/2 statistics); nil for non-ego data sets.
	EgoMembership []int
	// Owners are the ego-network owner vertices; nil for non-ego sets.
	Owners []graph.VID
	// EgoNets are the full ego networks (members incl. owner) backing
	// the overlap analysis of Fig. 1/2; nil for non-ego data sets.
	EgoNets []score.Group
}

// GroupSizes returns the member count of every group.
func (d *Dataset) GroupSizes() []int {
	out := make([]int, len(d.Groups))
	for i, g := range d.Groups {
		out[i] = len(g.Members)
	}
	return out
}

// errNoRNGSeed guards generators against an unset config.
var errBadConfig = errors.New("synth: invalid config")

// weightedPicker draws indices proportionally to fixed non-negative
// weights. It finds a draw's index in the cumulative sums through a guide
// table (Chen and Asau's indexed search): guide[j] is the first index
// whose cumulative weight reaches the start of the j-th of len(cum) equal
// slices of [0, total), so a search starts next to its answer and walks
// to the exact index sort.SearchFloat64s would return.
type weightedPicker struct {
	cum   []float64
	guide []int32
	total float64
	scale float64 // len(guide) / total; 0 when total is 0
}

func newWeightedPicker(weights []float64) *weightedPicker {
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		total += w
		cum[i] = total
	}
	n := len(cum)
	p := &weightedPicker{cum: cum, guide: make([]int32, n), total: total}
	if total > 0 {
		p.scale = float64(n) / total
	}
	i := 0
	for j := range p.guide {
		start := float64(j) * total / float64(n)
		for i < n && cum[i] < start {
			i++
		}
		p.guide[j] = int32(i)
	}
	return p
}

// search returns sort.SearchFloat64s(p.cum, x): the first index whose
// cumulative weight is at least x, or len(p.cum) if there is none. The
// guide only picks the starting point; the two walks make the answer
// exact whatever the float rounding of the table.
func (p *weightedPicker) search(x float64) int {
	j := len(p.guide) - 1
	if f := x * p.scale; f >= 0 && f < float64(j) {
		j = int(f)
	}
	i := int(p.guide[j])
	for i > 0 && p.cum[i-1] >= x {
		i--
	}
	for i < len(p.cum) && p.cum[i] < x {
		i++
	}
	return i
}

// pick returns an index with probability proportional to its weight.
func (p *weightedPicker) pick(rng *rand.Rand) int {
	return p.search(rng.Float64() * p.total)
}

// denseIDs returns the ids table 0..n-1 of a generator that numbers its
// vertices densely.
func denseIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// groupsFromExternal converts groups expressed in external IDs to dense
// vertex indices after the graph is built. Members missing from the graph
// (possible when a planned vertex ended up with no edges and was never
// registered) are dropped; groups left with fewer than minSize members
// are dropped entirely.
func groupsFromExternal(g *graph.Graph, raw map[string][]int64, minSize int) []score.Group {
	names := make([]string, 0, len(raw))
	for name := range raw {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic group order
	out := make([]score.Group, 0, len(raw))
	for _, name := range names {
		var members []graph.VID
		for _, ext := range raw[name] {
			if v, ok := g.Lookup(ext); ok {
				members = append(members, v)
			}
		}
		if len(members) >= minSize {
			out = append(out, score.Group{Name: name, Members: members})
		}
	}
	return out
}
