package synth

import (
	"fmt"
	"math/rand"

	"gpluscircles/internal/graph"
)

// CrawlConfig parameterizes the Magno-style BFS-crawl graph of Table II:
// a large, sparse directed graph with power-law in- and out-degree
// (α ≈ 1.3/1.2 in the crawl), low average degree (~16) and a larger
// diameter than the ego-joined data set. The generator wires a directed
// configuration-model-style graph from independently sampled power-law
// in- and out-degree targets.
type CrawlConfig struct {
	// NumVertices is the number of users.
	NumVertices int
	// InAlpha and OutAlpha are the power-law exponents of the degree
	// targets (sampled above DegreeXmin, capped at MaxDegree).
	InAlpha, OutAlpha float64
	// DegreeXmin is the lower cutoff of the degree distributions.
	DegreeXmin int
	// MaxDegree caps sampled degrees (a crawl sees a bounded frontier).
	MaxDegree int
	// Seed drives the generator's RNG.
	Seed int64
}

// DefaultCrawlConfig returns the laptop-scale Magno-like configuration.
// The paper's exponents (1.3/1.2) are below the α > 2 regime where a
// power law has finite mean, which reflects crawl truncation rather than
// a true distribution; we use exponents just above 2 with a hard cap,
// which reproduces the same verdict (power-law wins the likelihood-ratio
// test) and the qualitative sparsity contrast of Table II.
func DefaultCrawlConfig() CrawlConfig {
	return CrawlConfig{
		NumVertices: 40000,
		InAlpha:     2.1,
		OutAlpha:    2.2,
		DegreeXmin:  2,
		MaxDegree:   2000,
		Seed:        5,
	}
}

// Validate checks the configuration for consistency.
func (c CrawlConfig) Validate() error {
	switch {
	case c.NumVertices < 10:
		return fmt.Errorf("%w: NumVertices %d < 10", errBadConfig, c.NumVertices)
	case c.InAlpha <= 1 || c.OutAlpha <= 1:
		return fmt.Errorf("%w: alphas (%v, %v) must exceed 1", errBadConfig, c.InAlpha, c.OutAlpha)
	case c.DegreeXmin < 1:
		return fmt.Errorf("%w: DegreeXmin %d < 1", errBadConfig, c.DegreeXmin)
	case c.MaxDegree < c.DegreeXmin:
		return fmt.Errorf("%w: MaxDegree %d < DegreeXmin %d", errBadConfig, c.MaxDegree, c.DegreeXmin)
	}
	return nil
}

// GenerateCrawl builds the Magno-like sparse directed graph. It carries
// no group structure (the Magno data set is used only for the Table II
// comparison).
func GenerateCrawl(cfg CrawlConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.NumVertices

	// Sample degree targets.
	inDeg := samplePowerLawDegrees(rng, n, cfg.InAlpha, cfg.DegreeXmin, cfg.MaxDegree)
	outDeg := samplePowerLawDegrees(rng, n, cfg.OutAlpha, cfg.DegreeXmin, cfg.MaxDegree)

	// Directed stub matching: out-stubs shoot at in-stubs chosen
	// in-degree-proportionally. Self-loops and duplicates are dropped by
	// graph.FromArcs, slightly flattening the extreme tail — acceptable
	// for a crawl-style graph.
	inWeights := make([]float64, n)
	for v, d := range inDeg {
		inWeights[v] = float64(d)
	}
	picker := newWeightedPicker(inWeights)

	// A sparse spanning thread keeps the crawl graph weakly connected,
	// mimicking the BFS frontier that discovered every vertex.
	m := n - 1
	for _, d := range outDeg {
		m += d
	}
	from, to := make([]graph.VID, 0, m), make([]graph.VID, 0, m)
	for v := 1; v < n; v++ {
		from, to = append(from, graph.VID(v)), append(to, graph.VID(rng.Intn(v)))
	}
	for v := 0; v < n; v++ {
		for k := 0; k < outDeg[v]; k++ {
			from, to = append(from, graph.VID(v)), append(to, graph.VID(picker.pick(rng)))
		}
	}

	g, err := graph.FromArcs(true, denseIDs(n), from, to)
	if err != nil {
		return nil, fmt.Errorf("crawl generator: %w", err)
	}
	return &Dataset{Name: "Magno (BFS crawl)", Graph: g, Kind: Circles}, nil
}

// samplePowerLawDegrees draws capped power-law degree targets.
func samplePowerLawDegrees(rng *rand.Rand, n int, alpha float64, xmin, cap int) []int {
	pl := newBoundedPowerLaw(alpha, xmin, cap)
	out := make([]int, n)
	for i := range out {
		out[i] = pl.draw(rng)
	}
	return out
}
