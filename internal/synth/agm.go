package synth

import (
	"fmt"
	"math"
	"math/rand"

	"gpluscircles/internal/graph"
)

// AGMConfig parameterizes the community-graph generator modelled on the
// Community-Affiliation Graph Model of Yang & Leskovec: vertices join
// interest communities, communities wire internally with high
// probability, and a sparse background graph connects everyone. This is
// the stand-in for the LiveJournal and Orkut ground-truth community data
// sets (Section IV-B): member-joined groups that are dense inside and
// nearly closed to the outside.
type AGMConfig struct {
	// NumVertices is the number of users.
	NumVertices int
	// NumCommunities is the number of planted communities.
	NumCommunities int
	// MinCommunitySize and MaxCommunitySize bound the power-law community
	// size distribution.
	MinCommunitySize, MaxCommunitySize int
	// SizeExponent is the power-law exponent of community sizes (2–3 for
	// ground-truth community data).
	SizeExponent float64
	// IntraDegree is the mean number of links a member creates inside
	// each of its communities.
	IntraDegree float64
	// CohesionSigma is the log-normal sigma of a per-community quality
	// multiplier on IntraDegree: some communities are tight, others
	// loose. Larger values widen the conductance spread (LiveJournal's
	// near-uniform Fig. 6c distribution needs this heterogeneity).
	CohesionSigma float64
	// MembershipsPerVertex is the mean number of communities a vertex
	// joins (overlap); higher overlap raises boundary edges and spreads
	// the conductance distribution.
	MembershipsPerVertex float64
	// BackgroundDegree is the mean number of random background links per
	// vertex (the epsilon graph keeping everything connected).
	BackgroundDegree float64
	// Seed drives the generator's RNG.
	Seed int64
}

// DefaultLiveJournalConfig returns the LiveJournal-like configuration:
// modest overlap and background so community conductance spreads roughly
// uniformly over [0,1] (Fig. 6c).
func DefaultLiveJournalConfig() AGMConfig {
	return AGMConfig{
		NumVertices:          30000,
		NumCommunities:       900,
		MinCommunitySize:     8,
		MaxCommunitySize:     400,
		SizeExponent:         2.1,
		IntraDegree:          7,
		CohesionSigma:        1.0,
		MembershipsPerVertex: 1.4,
		BackgroundDegree:     2,
		Seed:                 3,
	}
}

// DefaultOrkutConfig returns the Orkut-like configuration: a denser graph
// with more overlap, pushing community conductance higher (half above
// 0.75 in Fig. 6c) while Ratio Cut stays vanishing.
func DefaultOrkutConfig() AGMConfig {
	return AGMConfig{
		NumVertices:          26000,
		NumCommunities:       1100,
		MinCommunitySize:     8,
		MaxCommunitySize:     300,
		SizeExponent:         2.0,
		IntraDegree:          4,
		CohesionSigma:        0.5,
		MembershipsPerVertex: 2.6,
		BackgroundDegree:     5,
		Seed:                 4,
	}
}

// Validate checks the configuration for consistency.
func (c AGMConfig) Validate() error {
	switch {
	case c.NumVertices < 10:
		return fmt.Errorf("%w: NumVertices %d < 10", errBadConfig, c.NumVertices)
	case c.NumCommunities < 1:
		return fmt.Errorf("%w: NumCommunities %d < 1", errBadConfig, c.NumCommunities)
	case c.MinCommunitySize < 3:
		return fmt.Errorf("%w: MinCommunitySize %d < 3", errBadConfig, c.MinCommunitySize)
	case c.MaxCommunitySize < c.MinCommunitySize:
		return fmt.Errorf("%w: MaxCommunitySize %d < MinCommunitySize %d",
			errBadConfig, c.MaxCommunitySize, c.MinCommunitySize)
	case c.MaxCommunitySize > c.NumVertices:
		return fmt.Errorf("%w: MaxCommunitySize %d > NumVertices %d",
			errBadConfig, c.MaxCommunitySize, c.NumVertices)
	case c.SizeExponent <= 1:
		return fmt.Errorf("%w: SizeExponent %v <= 1", errBadConfig, c.SizeExponent)
	case c.MembershipsPerVertex <= 0:
		return fmt.Errorf("%w: MembershipsPerVertex %v <= 0", errBadConfig, c.MembershipsPerVertex)
	}
	return nil
}

// GenerateAGM builds an undirected community data set. The name argument
// labels the data set in reports ("LiveJournal", "Orkut").
func GenerateAGM(name string, cfg AGMConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.NumVertices

	// Community sizes from a bounded power law.
	sizePL := newBoundedPowerLaw(cfg.SizeExponent, cfg.MinCommunitySize, cfg.MaxCommunitySize)
	sizes := make([]int, cfg.NumCommunities)
	for i := range sizes {
		sizes[i] = sizePL.draw(rng)
	}

	// Assign members by slot dealing: each joining vertex receives
	// k_v = 1 + Poisson(MembershipsPerVertex − 1) membership slots, the
	// slot pool is shuffled, and communities deal distinct vertices from
	// it. Communities dominated by single-membership vertices end up
	// nearly closed (low conductance), those with serial joiners open —
	// producing the broad conductance spread of ground-truth community
	// data (Fig. 6c) instead of a uniform floor.
	totalSlots := 0
	for _, s := range sizes {
		totalSlots += s
	}
	extraMean := cfg.MembershipsPerVertex - 1
	if extraMean < 0 {
		extraMean = 0
	}
	slots := make([]int64, 0, totalSlots+16)
	joinOrder := rng.Perm(n)
	extra := newPoisson(extraMean)
	for _, v := range joinOrder {
		if len(slots) >= totalSlots {
			break
		}
		k := 1 + extra.draw(rng)
		for j := 0; j < k; j++ {
			slots = append(slots, int64(v))
		}
	}
	// Top up with random vertices if every vertex joined and slots still
	// remain (possible for MembershipsPerVertex < 1).
	for len(slots) < totalSlots {
		slots = append(slots, rng.Int63n(int64(n)))
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	rawGroups := map[string][]int64{}
	members := make([][]int64, cfg.NumCommunities)
	cursor := 0
	for ci, size := range sizes {
		seen := make(map[int64]struct{}, size)
		com := make([]int64, 0, size)
		scanned := 0
		for len(com) < size && scanned < len(slots) {
			cand := slots[(cursor+scanned)%len(slots)]
			scanned++
			if _, dup := seen[cand]; dup {
				continue
			}
			seen[cand] = struct{}{}
			com = append(com, cand)
		}
		cursor = (cursor + scanned) % len(slots)
		// Degenerate fallback: fill from uniform draws.
		for len(com) < size {
			cand := rng.Int63n(int64(n))
			if _, dup := seen[cand]; dup {
				continue
			}
			seen[cand] = struct{}{}
			com = append(com, cand)
		}
		members[ci] = com
		rawGroups[fmt.Sprintf("com%04d", ci)] = com
	}

	// The arc buffers reserve an eighth above the expected arc count;
	// the cohesion factor below has mean 1.
	bgEdges := int(float64(n) * cfg.BackgroundDegree / 2)
	arcs := float64(bgEdges)
	for _, com := range members {
		arcs += float64(len(com)) * cfg.IntraDegree
	}
	from, to := make([]graph.VID, 0, int(arcs*9/8)), make([]graph.VID, 0, int(arcs*9/8))

	// Intra-community wiring: each member links to IntraDegree random
	// fellow members, scaled by a per-community log-normal cohesion
	// factor; small tight communities become near-cliques, loose ones
	// stay sparse — matching the heterogeneity of ground-truth community
	// profiles.
	for _, com := range members {
		cohesion := math.Exp(rng.NormFloat64()*cfg.CohesionSigma - cfg.CohesionSigma*cfg.CohesionSigma/2)
		intra := newPoisson(cfg.IntraDegree * cohesion)
		for _, u := range com {
			links := intra.draw(rng)
			for k := 0; k < links; k++ {
				v := com[rng.Intn(len(com))]
				from, to = append(from, graph.VID(u)), append(to, graph.VID(v))
			}
		}
	}

	// Epsilon background graph.
	for k := 0; k < bgEdges; k++ {
		u, v := rng.Int63n(int64(n)), rng.Int63n(int64(n))
		from, to = append(from, graph.VID(u)), append(to, graph.VID(v))
	}

	g, err := graph.FromArcs(false, denseIDs(n), from, to)
	if err != nil {
		return nil, fmt.Errorf("agm generator: %w", err)
	}
	return &Dataset{
		Name:   name,
		Graph:  g,
		Groups: groupsFromExternal(g, rawGroups, 3),
		Kind:   Communities,
	}, nil
}

// boundedPowerLaw draws integers in [lo, hi] with P(x) ∝ x^(−exp) by
// inverse-transform sampling of the continuous Pareto bounded to
// [lo, hi+0.999]. The bounds' powers are computed once, so a draw costs
// one math.Pow.
type boundedPowerLaw struct {
	lo, hi             int
	pa, span, oneMinus float64
}

func newBoundedPowerLaw(exp float64, lo, hi int) boundedPowerLaw {
	oneMinus := 1 - exp
	pa := math.Pow(float64(lo), oneMinus)
	return boundedPowerLaw{lo, hi, pa, math.Pow(float64(hi)+0.999, oneMinus) - pa, oneMinus}
}

func (p boundedPowerLaw) draw(rng *rand.Rand) int {
	return min(max(int(p.at(rng.Float64())), p.lo), p.hi)
}

// at is the bounded Pareto's inverse distribution function at u.
func (p boundedPowerLaw) at(u float64) float64 {
	return math.Pow(u*p.span+p.pa, 1/p.oneMinus)
}
