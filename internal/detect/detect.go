// Package detect implements circle/community detection and the machinery
// to evaluate detected groups against ground truth. The paper's outlook
// (Section VI) proposes moving "from a global to an ego-centred view";
// this package provides that direction: label-propagation community
// detection, conductance-sweep local communities
// (optimizing Eq. 3 around a seed), restriction to ego networks (circle
// discovery in the spirit of McAuley & Leskovec), partition modularity,
// and balanced-F1 scoring of detected groups against planted circles.
package detect

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/score"
)

// ErrNoRNG is returned when a nil random source is supplied.
var ErrNoRNG = errors.New("detect: nil RNG")

// LabelPropagationOptions tunes the asynchronous label-propagation run.
type LabelPropagationOptions struct {
	// MaxIter bounds the sweeps over all vertices (default 30).
	MaxIter int
	// MinCommunitySize drops trivial communities from the result
	// (default 3).
	MinCommunitySize int
}

func (o LabelPropagationOptions) withDefaults() LabelPropagationOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 30
	}
	if o.MinCommunitySize <= 0 {
		o.MinCommunitySize = 3
	}
	return o
}

// LabelPropagation partitions the graph into communities by asynchronous
// label propagation (Raghavan et al.): every vertex repeatedly adopts
// the most frequent label among its neighbours (ties broken at random)
// until labels stabilize. Directed arcs are treated as undirected links.
// Returns the communities as groups, largest first.
func LabelPropagation(g *graph.Graph, opts LabelPropagationOptions, rng *rand.Rand) ([]score.Group, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	opts = opts.withDefaults()
	n := g.NumVertices()
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	counts := map[int32]int{}
	var best []int32
	for iter := 0; iter < opts.MaxIter; iter++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		changed := 0
		for _, vi := range order {
			v := graph.VID(vi)
			for k := range counts {
				delete(counts, k)
			}
			tally := func(w graph.VID) { counts[labels[w]]++ }
			for _, w := range g.OutNeighbors(v) {
				tally(w)
			}
			if g.Directed() {
				for _, w := range g.InNeighbors(v) {
					tally(w)
				}
			}
			if len(counts) == 0 {
				continue
			}
			maxCount := 0
			for _, c := range counts {
				if c > maxCount {
					maxCount = c
				}
			}
			best = best[:0]
			for l, c := range counts {
				if c == maxCount {
					best = append(best, l)
				}
			}
			sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
			pick := best[rng.Intn(len(best))]
			if pick != labels[v] {
				labels[v] = pick
				changed++
			}
		}
		if changed == 0 {
			break
		}
	}

	byLabel := map[int32][]graph.VID{}
	for v, l := range labels {
		byLabel[l] = append(byLabel[l], graph.VID(v))
	}
	groups := make([]score.Group, 0, len(byLabel))
	for _, members := range byLabel {
		if len(members) >= opts.MinCommunitySize {
			groups = append(groups, score.Group{Members: members})
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if len(groups[i].Members) != len(groups[j].Members) {
			return len(groups[i].Members) > len(groups[j].Members)
		}
		return groups[i].Members[0] < groups[j].Members[0]
	})
	for i := range groups {
		groups[i].Name = fmt.Sprintf("detected%04d", i)
	}
	return groups, nil
}

// DetectEgoCircles discovers circles inside one ego network: the ego
// subgraph (alters only, the owner excluded — the owner connects to
// everyone and carries no signal) is extracted and label propagation is
// run on it, returning circles as vertex sets of the *host* graph.
func DetectEgoCircles(g *graph.Graph, egoNet []graph.VID, opts LabelPropagationOptions, rng *rand.Rand) ([]score.Group, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	if len(egoNet) < 2 {
		return nil, errors.New("detect: ego network needs an owner and at least one alter")
	}
	alters := egoNet[1:] // convention: owner first
	sub, err := graph.Subgraph(g, alters)
	if err != nil {
		return nil, fmt.Errorf("ego subgraph: %w", err)
	}
	detected, err := LabelPropagation(sub, opts, rng)
	if err != nil {
		return nil, err
	}
	// Translate back to host-graph indices.
	out := make([]score.Group, 0, len(detected))
	for i, grp := range detected {
		members := make([]graph.VID, 0, len(grp.Members))
		for _, v := range grp.Members {
			hv, err := g.MustLookup(sub.ExternalID(v))
			if err != nil {
				return nil, fmt.Errorf("translate member: %w", err)
			}
			members = append(members, hv)
		}
		out = append(out, score.Group{
			Name:    fmt.Sprintf("detected%04d", i),
			Members: members,
		})
	}
	return out, nil
}

// MatchResult evaluates detected groups against ground truth.
type MatchResult struct {
	// F1 is the balanced-F1 score of McAuley & Leskovec: the average of
	// (a) each truth group's best F1 over detections and (b) each
	// detection's best F1 over truth groups.
	F1 float64
	// TruthSideF1 and DetectedSideF1 are the two halves of the balance.
	TruthSideF1    float64
	DetectedSideF1 float64
}

// MatchGroups computes the balanced F1 between detected and ground-truth
// group collections.
func MatchGroups(truth, detected []score.Group) MatchResult {
	if len(truth) == 0 || len(detected) == 0 {
		return MatchResult{}
	}
	truthSets := toSets(truth)
	detSets := toSets(detected)

	var truthSide float64
	for _, ts := range truthSets {
		best := 0.0
		for _, ds := range detSets {
			if f := f1(ts, ds); f > best {
				best = f
			}
		}
		truthSide += best
	}
	truthSide /= float64(len(truthSets))

	var detSide float64
	for _, ds := range detSets {
		best := 0.0
		for _, ts := range truthSets {
			if f := f1(ts, ds); f > best {
				best = f
			}
		}
		detSide += best
	}
	detSide /= float64(len(detSets))

	return MatchResult{
		F1:             (truthSide + detSide) / 2,
		TruthSideF1:    truthSide,
		DetectedSideF1: detSide,
	}
}

func toSets(groups []score.Group) []map[graph.VID]struct{} {
	out := make([]map[graph.VID]struct{}, len(groups))
	for i, g := range groups {
		s := make(map[graph.VID]struct{}, len(g.Members))
		for _, v := range g.Members {
			s[v] = struct{}{}
		}
		out[i] = s
	}
	return out
}

// f1 is the F1 of predicting set b for truth set a.
func f1(a, b map[graph.VID]struct{}) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for v := range a {
		if _, ok := b[v]; ok {
			inter++
		}
	}
	if inter == 0 {
		return 0
	}
	precision := float64(inter) / float64(len(b))
	recall := float64(inter) / float64(len(a))
	return 2 * precision * recall / (precision + recall)
}
