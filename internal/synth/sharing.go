package synth

import (
	"fmt"
	"math/rand"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/score"
)

// SharingConfig parameterizes the circle-sharing densification simulator.
// Fang et al. — cited by the paper to explain Fig. 6's Ratio Cut — found
// that sharing a circle leads to densification of community circles:
// members discover fellow members they had not connected to yet and add
// them. This simulator applies that mechanism to an existing ego data set
// so the before/after effect on the scoring functions can be measured.
type SharingConfig struct {
	// ShareFraction is the share of circles whose owner shares them.
	ShareFraction float64
	// AdoptionP is the probability that a member, on seeing the shared
	// circle, connects to a fellow member they were not yet linked to.
	AdoptionP float64
	// Reciprocity is the probability a new connection is returned.
	Reciprocity float64
	// Seed drives the RNG.
	Seed int64
}

// DefaultSharingConfig returns moderate sharing dynamics.
func DefaultSharingConfig() SharingConfig {
	return SharingConfig{
		ShareFraction: 0.5,
		AdoptionP:     0.35,
		Reciprocity:   0.3,
		Seed:          9,
	}
}

// Validate checks the configuration for consistency.
func (c SharingConfig) Validate() error {
	switch {
	case c.ShareFraction < 0 || c.ShareFraction > 1:
		return fmt.Errorf("%w: ShareFraction %v outside [0,1]", errBadConfig, c.ShareFraction)
	case c.AdoptionP < 0 || c.AdoptionP > 1:
		return fmt.Errorf("%w: AdoptionP %v outside [0,1]", errBadConfig, c.AdoptionP)
	case c.Reciprocity < 0 || c.Reciprocity > 1:
		return fmt.Errorf("%w: Reciprocity %v outside [0,1]", errBadConfig, c.Reciprocity)
	}
	return nil
}

// SharingResult is the output of one sharing round.
type SharingResult struct {
	// Dataset is the post-sharing data set (new graph, same groups).
	Dataset *Dataset
	// SharedCircles counts the circles that were shared.
	SharedCircles int
	// NewEdges counts the arcs added by densification.
	NewEdges int64
}

// ApplyCircleSharing simulates one round of circle sharing on an ego
// data set and returns the densified data set. The input data set is not
// modified; groups keep their membership (sharing densifies, it does not
// grow membership in this model).
func ApplyCircleSharing(ds *Dataset, cfg SharingConfig) (*SharingResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ds.Groups) == 0 {
		return nil, fmt.Errorf("synth: data set %s has no circles to share", ds.Name)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := ds.Graph

	from, to := make([]graph.VID, 0, g.NumEdges()), make([]graph.VID, 0, g.NumEdges())
	g.Edges(func(e graph.Edge) bool {
		from, to = append(from, e.From), append(to, e.To)
		return true
	})

	res := &SharingResult{}
	before := g.NumEdges()
	for _, grp := range ds.Groups {
		if rng.Float64() >= cfg.ShareFraction {
			continue
		}
		res.SharedCircles++
		// Every member sees the full roster and adopts missing links.
		for _, u := range grp.Members {
			for _, v := range grp.Members {
				if u == v || g.HasEdge(u, v) {
					continue
				}
				if rng.Float64() < cfg.AdoptionP {
					from, to = append(from, u), append(to, v)
					if g.Directed() && rng.Float64() < cfg.Reciprocity {
						from, to = append(from, v), append(to, u)
					}
				}
			}
		}
	}

	ng, err := graph.FromArcs(g.Directed(), g.ExternalIDs(), from, to)
	if err != nil {
		return nil, fmt.Errorf("densified graph: %w", err)
	}
	res.NewEdges = ng.NumEdges() - before

	// Groups carry over: the vertex set and external IDs are unchanged,
	// so dense indices are identical.
	out := &Dataset{
		Name:          ds.Name + " (post-sharing)",
		Graph:         ng,
		Groups:        append([]score.Group(nil), ds.Groups...),
		Kind:          ds.Kind,
		EgoMembership: ds.EgoMembership,
		Owners:        ds.Owners,
		EgoNets:       ds.EgoNets,
	}
	res.Dataset = out
	return res, nil
}
