package synth

import (
	"fmt"
	"math/rand"

	"gpluscircles/internal/graph"
)

// FollowerConfig parameterizes the Twitter-like generator: a sparser
// directed follower graph grown by preferential attachment, with
// list-type groups curated from users' followee neighbourhoods. Twitter
// lists play the same role as circles in Fig. 6 — curated, creator-
// centric groups — on a graph roughly 8× sparser than the Google+ set
// (Table III: 1.77 M edges over 81 k vertices vs 13.7 M over 108 k).
type FollowerConfig struct {
	// NumVertices is the number of users.
	NumVertices int
	// OutDegree is the mean number of accounts each new user follows.
	OutDegree int
	// Attachment mixes preferential (1.0) and uniform (0.0) target
	// selection; preferential attachment yields the heavy-tailed
	// in-degree of follower graphs.
	Attachment float64
	// Reciprocity is the probability a follow is returned.
	Reciprocity float64
	// NumLists is the number of list-type groups to curate.
	NumLists int
	// MeanListSize is the mean number of accounts per list.
	MeanListSize int
	// MaxMemberDegreeFactor caps list members' in-degree at this multiple
	// of OutDegree: themed lists collect mid-tier accounts, not global
	// celebrities, keeping the Ratio Cut scale below the far denser
	// Google+ graph as in the paper (means 6 vs 34).
	MaxMemberDegreeFactor float64
	// MeanListInternalDegree is the mean number of follows each list
	// member has toward fellow members (themed accounts follow each
	// other), giving lists the positive internal density of Fig. 6a.
	MeanListInternalDegree float64
	// Seed drives the generator's RNG.
	Seed int64
}

// DefaultFollowerConfig returns a laptop-scale Twitter-like config.
func DefaultFollowerConfig() FollowerConfig {
	return FollowerConfig{
		NumVertices:            5200,
		OutDegree:              7,
		Attachment:             0.7,
		Reciprocity:            0.2,
		NumLists:               100,
		MeanListSize:           22,
		MaxMemberDegreeFactor:  6,
		MeanListInternalDegree: 2,
		Seed:                   2,
	}
}

// Validate checks the configuration for consistency.
func (c FollowerConfig) Validate() error {
	switch {
	case c.NumVertices < 10:
		return fmt.Errorf("%w: NumVertices %d < 10", errBadConfig, c.NumVertices)
	case c.OutDegree < 1:
		return fmt.Errorf("%w: OutDegree %d < 1", errBadConfig, c.OutDegree)
	case c.Attachment < 0 || c.Attachment > 1:
		return fmt.Errorf("%w: Attachment %v outside [0,1]", errBadConfig, c.Attachment)
	case c.NumLists < 1:
		return fmt.Errorf("%w: NumLists %d < 1", errBadConfig, c.NumLists)
	case c.MeanListSize < 3:
		return fmt.Errorf("%w: MeanListSize %d < 3", errBadConfig, c.MeanListSize)
	case c.MaxMemberDegreeFactor <= 0:
		return fmt.Errorf("%w: MaxMemberDegreeFactor %v <= 0", errBadConfig, c.MaxMemberDegreeFactor)
	case c.MeanListInternalDegree < 0:
		return fmt.Errorf("%w: MeanListInternalDegree %v < 0", errBadConfig, c.MeanListInternalDegree)
	}
	return nil
}

// GenerateFollower builds the Twitter-like data set.
func GenerateFollower(cfg FollowerConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	n := cfg.NumVertices
	// outAdj is kept during growth for list curation.
	outAdj := make([][]int64, n)
	inDeg := make([]float64, n)
	var from, to []graph.VID
	arc := func(u, v int64) {
		from, to = append(from, graph.VID(u)), append(to, graph.VID(v))
	}

	// Seed clique so early attachment has targets.
	seedSize := cfg.OutDegree + 1
	if seedSize > n {
		seedSize = n
	}
	for i := 0; i < seedSize; i++ {
		for j := 0; j < seedSize; j++ {
			if i == j {
				continue
			}
			arc(int64(i), int64(j))
			outAdj[i] = append(outAdj[i], int64(j))
			inDeg[j]++
		}
	}

	followsDist := newPoisson(float64(cfg.OutDegree))
	for v := seedSize; v < n; v++ {
		follows := followsDist.draw(rng)
		if follows < 1 {
			follows = 1
		}
		for k := 0; k < follows; k++ {
			var target int
			if rng.Float64() < cfg.Attachment {
				// Preferential: copy the in-link of a random existing
				// edge — equivalent to in-degree-proportional selection
				// without maintaining a cumulative array.
				donor := rng.Intn(v)
				if len(outAdj[donor]) > 0 {
					target = int(outAdj[donor][rng.Intn(len(outAdj[donor]))])
				} else {
					target = rng.Intn(v)
				}
			} else {
				target = rng.Intn(v)
			}
			if target == v {
				continue
			}
			arc(int64(v), int64(target))
			outAdj[v] = append(outAdj[v], int64(target))
			inDeg[target]++
			if rng.Float64() < cfg.Reciprocity {
				arc(int64(target), int64(v))
				outAdj[target] = append(outAdj[target], int64(v))
				inDeg[v]++
			}
		}
	}

	// Lists: a curator bundles a themed subset of their followees plus
	// second-hop accounts — curated like circles, but drawn from a
	// sparser neighbourhood. Global celebrities are excluded via the
	// degree cap, and themed members follow each other lightly.
	degreeCap := cfg.MaxMemberDegreeFactor * float64(cfg.OutDegree)
	rawGroups := map[string][]int64{}
	sizeDist := newPoisson(float64(cfg.MeanListSize))
	linksDist := newPoisson(cfg.MeanListInternalDegree)
	for l := 0; l < cfg.NumLists; l++ {
		curator := rng.Intn(n)
		if len(outAdj[curator]) == 0 {
			l--
			continue
		}
		size := sizeDist.draw(rng)
		if size < 4 {
			size = 4
		}
		seen := map[int64]struct{}{}
		list := make([]int64, 0, size)
		add := func(id int64) {
			if _, dup := seen[id]; dup || len(list) >= size {
				return
			}
			if inDeg[id] > degreeCap {
				return
			}
			seen[id] = struct{}{}
			list = append(list, id)
		}
		// First hop.
		for _, id := range outAdj[curator] {
			add(id)
		}
		// Second hop until full.
		for attempts := 0; len(list) < size && attempts < 10*size; attempts++ {
			via := outAdj[curator][rng.Intn(len(outAdj[curator]))]
			if cand := outAdj[via]; len(cand) > 0 {
				add(cand[rng.Intn(len(cand))])
			}
		}
		if len(list) < 3 {
			continue
		}
		rawGroups[fmt.Sprintf("list%03d", l)] = list
		// Themed accounts interlink sparsely.
		for _, u := range list {
			links := linksDist.draw(rng)
			for k := 0; k < links; k++ {
				v := list[rng.Intn(len(list))]
				if v != u {
					arc(u, v)
					inDeg[v]++
				}
			}
		}
	}

	g, err := graph.FromArcs(true, denseIDs(n), from, to)
	if err != nil {
		return nil, fmt.Errorf("follower generator: %w", err)
	}
	return &Dataset{
		Name:   "Twitter",
		Graph:  g,
		Groups: groupsFromExternal(g, rawGroups, 3),
		Kind:   Circles,
	}, nil
}
