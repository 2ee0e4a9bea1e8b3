// Package feature handles binary profile features, as in the
// McAuley–Leskovec ego-network data, and the similarity measures built on
// them. McAuley & Leskovec's premise — restated by the paper in Section
// II — is that "vertices in a circle share a common property or aspect";
// this package makes that premise measurable (feature homophily of
// circles vs. random sets) and provides a generator that plants facet
// features into synthetic data sets.
package feature

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/score"
)

// ErrNoRNG is returned when a nil random source is supplied.
var ErrNoRNG = errors.New("feature: nil RNG")

// Table holds sparse binary feature vectors for a graph's vertices.
type Table struct {
	// Names labels the feature dimensions; may be empty for synthetic
	// features.
	Names []string
	// byVertex[v] lists v's active feature indices, ascending.
	byVertex [][]int32
}

// NewTable creates an empty table over n vertices.
func NewTable(n int) *Table {
	return &Table{byVertex: make([][]int32, n)}
}

// NumVertices returns the table's vertex capacity.
func (t *Table) NumVertices() int { return len(t.byVertex) }

// Set assigns the (sorted, deduplicated) active features of v.
func (t *Table) Set(v graph.VID, features []int32) {
	fs := make([]int32, len(features))
	copy(fs, features)
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	w := 0
	for i, f := range fs {
		if i == 0 || f != fs[i-1] {
			fs[w] = f
			w++
		}
	}
	t.byVertex[v] = fs[:w]
}

// Add activates one feature of v, keeping the list sorted.
func (t *Table) Add(v graph.VID, f int32) {
	fs := t.byVertex[v]
	i := sort.Search(len(fs), func(i int) bool { return fs[i] >= f })
	if i < len(fs) && fs[i] == f {
		return
	}
	fs = append(fs, 0)
	copy(fs[i+1:], fs[i:])
	fs[i] = f
	t.byVertex[v] = fs
}

// Features returns v's active features (shared slice; do not modify).
func (t *Table) Features(v graph.VID) []int32 { return t.byVertex[v] }

// Jaccard returns the Jaccard similarity of two vertices' feature sets
// (0 when either is empty).
func (t *Table) Jaccard(u, v graph.VID) float64 {
	a, b := t.byVertex[u], t.byVertex[v]
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// MeanPairwiseSimilarity returns the average Jaccard similarity over all
// member pairs of the set (0 for sets smaller than 2). For large sets,
// at most maxPairs random pairs are sampled; pass 0 for the default of
// 2000.
func (t *Table) MeanPairwiseSimilarity(members []graph.VID, maxPairs int, rng *rand.Rand) (float64, error) {
	n := len(members)
	if n < 2 {
		return 0, nil
	}
	if maxPairs <= 0 {
		maxPairs = 2000
	}
	totalPairs := n * (n - 1) / 2
	if totalPairs <= maxPairs {
		var sum float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sum += t.Jaccard(members[i], members[j])
			}
		}
		return sum / float64(totalPairs), nil
	}
	if rng == nil {
		return 0, ErrNoRNG
	}
	var sum float64
	for k := 0; k < maxPairs; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		sum += t.Jaccard(members[i], members[j])
	}
	return sum / float64(maxPairs), nil
}

// PlantConfig tunes the synthetic facet-feature generator.
type PlantConfig struct {
	// BackgroundFeatures is the size of the global feature vocabulary
	// assigned as noise.
	BackgroundFeatures int
	// BackgroundPerVertex is the mean number of noise features per
	// vertex.
	BackgroundPerVertex float64
	// FacetAdoption is the probability a group member carries the
	// group's facet feature.
	FacetAdoption float64
	// Seed drives the RNG.
	Seed int64
}

// DefaultPlantConfig returns moderate homophily planting.
func DefaultPlantConfig() PlantConfig {
	return PlantConfig{
		BackgroundFeatures:  120,
		BackgroundPerVertex: 4,
		FacetAdoption:       0.8,
		Seed:                10,
	}
}

// Validate checks the configuration.
func (c PlantConfig) Validate() error {
	switch {
	case c.BackgroundFeatures < 1:
		return fmt.Errorf("feature: BackgroundFeatures %d < 1", c.BackgroundFeatures)
	case c.BackgroundPerVertex < 0:
		return fmt.Errorf("feature: BackgroundPerVertex %v < 0", c.BackgroundPerVertex)
	case c.FacetAdoption < 0 || c.FacetAdoption > 1:
		return fmt.Errorf("feature: FacetAdoption %v outside [0,1]", c.FacetAdoption)
	}
	return nil
}

// Plant assigns features over a graph: every vertex draws background
// noise features, and every group receives its own facet feature that
// most members adopt — making McAuley & Leskovec's "common aspect"
// premise true by construction, with measurable strength.
func Plant(g *graph.Graph, groups []score.Group, cfg PlantConfig) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := NewTable(g.NumVertices())

	for v := 0; v < g.NumVertices(); v++ {
		k := poisson(rng, cfg.BackgroundPerVertex)
		for i := 0; i < k; i++ {
			t.Add(graph.VID(v), int32(rng.Intn(cfg.BackgroundFeatures)))
		}
	}
	// Facet features occupy indices above the background vocabulary.
	for gi, grp := range groups {
		facet := int32(cfg.BackgroundFeatures + gi)
		for _, v := range grp.Members {
			if rng.Float64() < cfg.FacetAdoption {
				t.Add(v, facet)
			}
		}
	}

	t.Names = make([]string, cfg.BackgroundFeatures+len(groups))
	for i := 0; i < cfg.BackgroundFeatures; i++ {
		t.Names[i] = fmt.Sprintf("background;%d", i)
	}
	for gi, grp := range groups {
		t.Names[cfg.BackgroundFeatures+gi] = "facet;" + grp.Name
	}
	return t, nil
}

// poisson draws a Poisson count (Knuth's method; means here are small).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := -mean
	k, logP := 0, 0.0
	for {
		logP += logUniform(rng)
		if logP < l {
			return k
		}
		k++
	}
}

// logUniform returns ln(U) for U ~ Uniform(0,1], avoiding log(0).
func logUniform(rng *rand.Rand) float64 {
	u := rng.Float64()
	//lint:ignore floateq rand.Float64 can return exactly 0; guards log(0) without changing any other draw
	if u == 0 {
		u = 1e-300
	}
	return math.Log(u)
}
