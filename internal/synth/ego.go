package synth

import (
	"fmt"
	"math"
	"math/rand"

	"gpluscircles/internal/graph"
)

// EgoConfig parameterizes the Google+-like generator: a union of
// overlapping ego networks with owner-curated circles, following the
// structure of the McAuley–Leskovec data set (Section IV-A, Fig. 1).
//
// Planted properties and the figures that rely on them:
//   - overlapping ego networks via a shared popularity-weighted vertex
//     pool -> heavy-tailed ego-membership counts (Fig. 1/2);
//   - log-normal vertex popularity driving in-link attraction ->
//     log-normal in-degree (Fig. 3, Table II);
//   - dense intra-ego wiring -> high average degree, small diameter
//     (Table II) and moderate clustering (Fig. 4);
//   - circles as curated subsets of one ego network with a homophily
//     boost -> dense inside *and* heavily connected outward (Figs. 5/6);
//   - a fraction of star-like celebrity circles -> the low-score long
//     tails the paper attributes to Fang et al.'s second category.
type EgoConfig struct {
	// NumEgos is the number of ego networks (133 in the real data).
	NumEgos int
	// MeanEgoSize is the mean member count of an ego network.
	MeanEgoSize int
	// EgoSizeSigma is the log-normal sigma of ego-network sizes.
	EgoSizeSigma float64
	// PoolSize is the size of the shared vertex pool from which ego
	// networks draw overlapping members.
	PoolSize int
	// SharedFraction is the fraction of each ego network drawn from the
	// shared pool (the rest are fresh vertices private to the ego).
	SharedFraction float64
	// PopularitySigma is the log-normal sigma of vertex popularity, which
	// weights both pool membership and in-link attraction.
	PopularitySigma float64
	// IntraEgoDegree is the mean number of out-links each member creates
	// toward fellow members of the same ego network.
	IntraEgoDegree float64
	// Reciprocity is the probability that a link is reciprocated.
	Reciprocity float64
	// MinCircles and MaxCircles bound the circles each owner shares.
	MinCircles, MaxCircles int
	// CircleFraction is the mean fraction of an ego network included in
	// one circle.
	CircleFraction float64
	// CircleBoostDegree is the mean number of extra out-links a circle
	// member creates toward fellow circle members (facet homophily).
	CircleBoostDegree float64
	// CelebrityFraction is the fraction of circles that are star-like
	// celebrity circles (popular members, no densification).
	CelebrityFraction float64
	// Seed drives the generator's RNG.
	Seed int64
}

// DefaultEgoConfig returns a laptop-scale configuration (~1/25 of the
// paper's vertex count) preserving every planted property.
func DefaultEgoConfig() EgoConfig {
	return EgoConfig{
		NumEgos:           48,
		MeanEgoSize:       160,
		EgoSizeSigma:      0.5,
		PoolSize:          2600,
		SharedFraction:    0.55,
		PopularitySigma:   1.1,
		IntraEgoDegree:    30,
		Reciprocity:       0.15,
		MinCircles:        2,
		MaxCircles:        6,
		CircleFraction:    0.18,
		CircleBoostDegree: 6,
		CelebrityFraction: 0.12,
		Seed:              1,
	}
}

// Validate checks the configuration for consistency.
func (c EgoConfig) Validate() error {
	switch {
	case c.NumEgos < 1:
		return fmt.Errorf("%w: NumEgos %d < 1", errBadConfig, c.NumEgos)
	case c.MeanEgoSize < 2:
		return fmt.Errorf("%w: MeanEgoSize %d < 2", errBadConfig, c.MeanEgoSize)
	case c.PoolSize < c.MeanEgoSize:
		return fmt.Errorf("%w: PoolSize %d < MeanEgoSize %d", errBadConfig, c.PoolSize, c.MeanEgoSize)
	case c.SharedFraction < 0 || c.SharedFraction > 1:
		return fmt.Errorf("%w: SharedFraction %v outside [0,1]", errBadConfig, c.SharedFraction)
	case c.Reciprocity < 0 || c.Reciprocity > 1:
		return fmt.Errorf("%w: Reciprocity %v outside [0,1]", errBadConfig, c.Reciprocity)
	case c.MinCircles < 1 || c.MaxCircles < c.MinCircles:
		return fmt.Errorf("%w: circle bounds [%d,%d]", errBadConfig, c.MinCircles, c.MaxCircles)
	case c.CircleFraction <= 0 || c.CircleFraction > 1:
		return fmt.Errorf("%w: CircleFraction %v outside (0,1]", errBadConfig, c.CircleFraction)
	case c.CelebrityFraction < 0 || c.CelebrityFraction > 1:
		return fmt.Errorf("%w: CelebrityFraction %v outside [0,1]", errBadConfig, c.CelebrityFraction)
	}
	return nil
}

// GenerateEgo builds the Google+-like data set.
func GenerateEgo(cfg EgoConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Shared pool with log-normal popularity.
	popularity := make([]float64, cfg.PoolSize)
	for i := range popularity {
		popularity[i] = math.Exp(rng.NormFloat64() * cfg.PopularitySigma)
	}
	poolPicker := newWeightedPicker(popularity)

	// External IDs: pool = [0, PoolSize); owners and fresh vertices
	// allocated upward from PoolSize.
	nextID := int64(cfg.PoolSize)
	b := graph.NewBuilder(true)
	egoMembership := map[int64]int{}
	rawGroups := map[string][]int64{}
	rawEgoNets := map[string][]int64{}
	ownerIDs := make([]int64, 0, cfg.NumEgos)

	for e := 0; e < cfg.NumEgos; e++ {
		owner := nextID
		nextID++
		ownerIDs = append(ownerIDs, owner)

		// Ego-network size, log-normal around the configured mean.
		size := int(math.Round(float64(cfg.MeanEgoSize) *
			math.Exp(rng.NormFloat64()*cfg.EgoSizeSigma-cfg.EgoSizeSigma*cfg.EgoSizeSigma/2)))
		if size < 4 {
			size = 4
		}

		// Draw members: shared pool picks (popularity-weighted, so
		// popular vertices land in many ego networks) plus fresh private
		// vertices.
		memberSet := make(map[int64]struct{}, size)
		members := make([]int64, 0, size)
		shared := int(float64(size) * cfg.SharedFraction)
		for len(members) < shared {
			cand := int64(poolPicker.pick(rng))
			if _, dup := memberSet[cand]; dup {
				continue
			}
			memberSet[cand] = struct{}{}
			members = append(members, cand)
		}
		for len(members) < size {
			members = append(members, nextID)
			memberSet[nextID] = struct{}{}
			nextID++
		}
		for _, m := range members {
			egoMembership[m]++
		}
		rawEgoNets[fmt.Sprintf("ego%03d", e)] = append([]int64{owner}, members...)

		// Owner adds every member to at least one circle: owner->member
		// arcs, reciprocated with the configured probability.
		for _, m := range members {
			b.AddEdge(owner, m)
			if rng.Float64() < cfg.Reciprocity {
				b.AddEdge(m, owner)
			}
		}

		// Dense intra-ego wiring. Targets are popularity-weighted among
		// members (using pool popularity for shared members, weight 1 for
		// private ones) so in-degree inherits the log-normal shape.
		// Celebrities behave like celebrities: high-popularity members
		// emit few links of their own and rarely follow back, which keeps
		// celebrity circles star-like (Fang et al.'s second category)
		// instead of wiring hubs into cliques.
		memberWeights := make([]float64, len(members))
		for i, m := range members {
			if m < int64(cfg.PoolSize) {
				memberWeights[i] = popularity[m]
			} else {
				memberWeights[i] = 1
			}
		}
		memberPicker := newWeightedPicker(memberWeights)
		const hubWeight = 10 // members above this popularity act as celebrities
		for i, u := range members {
			links := poissonApprox(rng, cfg.IntraEgoDegree*outDamp(memberWeights[i]))
			for k := 0; k < links; k++ {
				// Ordinary members follow the popular (weighted pick);
				// celebrities follow ordinary acquaintances (uniform pick)
				// — stars do not primarily follow other stars.
				var vi int
				if memberWeights[i] > hubWeight {
					vi = rng.Intn(len(members))
				} else {
					vi = memberPicker.pick(rng)
				}
				v := members[vi]
				if v == u {
					continue
				}
				b.AddEdge(u, v)
				if rng.Float64() < cfg.Reciprocity*recipDamp(memberWeights[vi]) {
					b.AddEdge(v, u)
				}
			}
		}

		// Circles shared by this owner.
		numCircles := cfg.MinCircles + rng.Intn(cfg.MaxCircles-cfg.MinCircles+1)
		for c := 0; c < numCircles; c++ {
			name := fmt.Sprintf("ego%03d/circle%d", e, c)
			if rng.Float64() < cfg.CelebrityFraction {
				rawGroups[name] = celebrityCircle(rng, members, memberWeights, cfg.CircleFraction)
				continue
			}
			circle := curatedCircle(rng, members, shared, cfg.CircleFraction)
			rawGroups[name] = circle
			// Facet homophily: extra in-circle links, with the same
			// celebrity damping as the base wiring so popular members do
			// not accumulate hub-hub cliques across overlapping circles.
			weightOf := func(m int64) float64 {
				if m < int64(cfg.PoolSize) {
					return popularity[m]
				}
				return 1
			}
			cs := make([]int64, len(circle))
			copy(cs, circle)
			for _, u := range cs {
				links := poissonApprox(rng, cfg.CircleBoostDegree*outDamp(weightOf(u)))
				for k := 0; k < links; k++ {
					v := cs[rng.Intn(len(cs))]
					if v == u {
						continue
					}
					b.AddEdge(u, v)
					if rng.Float64() < cfg.Reciprocity*recipDamp(weightOf(v)) {
						b.AddEdge(v, u)
					}
				}
			}
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("ego generator: %w", err)
	}

	membership := make([]int, g.NumVertices())
	for ext, count := range egoMembership {
		if v, ok := g.Lookup(ext); ok {
			membership[v] = count
		}
	}
	owners := make([]graph.VID, 0, len(ownerIDs))
	for _, id := range ownerIDs {
		if v, ok := g.Lookup(id); ok {
			owners = append(owners, v)
		}
	}

	return &Dataset{
		Name:          "Google+",
		Graph:         g,
		Groups:        groupsFromExternal(g, rawGroups, 3),
		Kind:          Circles,
		EgoMembership: membership,
		Owners:        owners,
		EgoNets:       groupsFromExternal(g, rawEgoNets, 1),
	}, nil
}

// curatedCircle samples a facet (work, family, ...) the owner files
// contacts under. Facets consist mostly of the ego's *private* contacts
// (members[sharedN:], people specific to this relationship) with only a
// sprinkle of globally popular shared-pool members — real circles hold
// ordinary acquaintances, not celebrities, which is what keeps their
// boundary below that of hub-biased random-walk sets (Fig. 5b: >70 % of
// circles score lower on Ratio Cut than the random sets).
func curatedCircle(rng *rand.Rand, members []int64, sharedN int, fraction float64) []int64 {
	// Candidate pool: all private members plus ~20 % of shared ones.
	candidates := make([]int64, 0, len(members))
	candidates = append(candidates, members[sharedN:]...)
	for _, m := range members[:sharedN] {
		if rng.Float64() < 0.2 {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) == 0 {
		candidates = members
	}
	size := int(float64(len(members)) * fraction * (0.5 + rng.Float64()))
	if size < 3 {
		size = 3
	}
	if size > len(candidates) {
		size = len(candidates)
	}
	start := rng.Intn(len(candidates))
	out := make([]int64, 0, size)
	for k := 0; k < size; k++ {
		out = append(out, candidates[(start+k)%len(candidates)])
	}
	return out
}

// celebrityCircle picks the most popular members: Fang et al.'s second
// shared-circle category — high in-degree members with little mutual
// connectivity. No extra internal edges are added.
func celebrityCircle(rng *rand.Rand, members []int64, weights []float64, fraction float64) []int64 {
	size := int(float64(len(members)) * fraction * (0.3 + 0.4*rng.Float64()))
	if size < 5 {
		size = 5
	}
	if size > len(members) {
		size = len(members)
	}
	// Partial selection of the top-weight members.
	type mw struct {
		id int64
		w  float64
	}
	tmp := make([]mw, len(members))
	for i := range members {
		tmp[i] = mw{id: members[i], w: weights[i]}
	}
	// Selection sort of the top `size` (size is small).
	for i := 0; i < size; i++ {
		best := i
		for j := i + 1; j < len(tmp); j++ {
			if tmp[j].w > tmp[best].w {
				best = j
			}
		}
		tmp[i], tmp[best] = tmp[best], tmp[i]
	}
	out := make([]int64, size)
	for i := 0; i < size; i++ {
		out[i] = tmp[i].id
	}
	return out
}

// outDamp scales a member's outgoing-link budget by popularity:
// celebrities broadcast, they do not follow. Ordinary members (weight ~1)
// keep their full budget; a weight-16 member emits half, a weight-200 hub
// only a few percent. The smooth form avoids threshold artifacts.
func outDamp(weight float64) float64 {
	w := math.Max(weight, 1)
	return 1 / (1 + math.Pow(w/16, 1.5))
}

// recipDamp scales the probability of following back by the follower's
// popularity: celebrities rarely reciprocate (Fang et al. report low
// reciprocity for celebrity circles).
func recipDamp(weight float64) float64 {
	return 1 / (1 + math.Max(weight, 1)/10)
}

// poissonApprox draws an approximately Poisson-distributed count with the
// given mean; see poisson. Callers that draw many counts with one mean
// build the sampler once instead.
func poissonApprox(rng *rand.Rand, mean float64) int {
	return newPoisson(mean).draw(rng)
}

// poisson draws approximately Poisson-distributed counts with a fixed
// mean, using Knuth's method for small means and a rounded normal for
// large ones. Knuth's limit e^−mean is computed once, when the sampler is
// built.
type poisson struct{ mean, limit float64 }

func newPoisson(mean float64) poisson {
	p := poisson{mean: mean}
	if mean <= 30 {
		p.limit = math.Exp(-mean)
	}
	return p
}

func (p poisson) draw(rng *rand.Rand) int {
	if p.mean <= 0 {
		return 0
	}
	if p.mean > 30 {
		v := int(math.Round(rng.NormFloat64()*math.Sqrt(p.mean) + p.mean))
		if v < 0 {
			return 0
		}
		return v
	}
	k, prod := 0, 1.0
	for {
		prod *= rng.Float64()
		if prod <= p.limit {
			return k
		}
		k++
	}
}
