package detect_test

import (
	"math/rand"
	"testing"

	"gpluscircles/internal/core"
	"gpluscircles/internal/detect"
	"gpluscircles/internal/graph"
)

// TestConductanceSweepMatchesReference requires the incremental sweep to
// return its reference oracle's members, name and conductance bits
// (detect.CheckSweepMatchesReference) on random directed and undirected
// graphs with isolated vertices at every maxSize from 1 to 40, and on
// the five seed data sets from nine seeds each.
func TestConductanceSweepMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for trial := 0; trial < 80; trial++ {
			n := 1 + rng.Intn(120)
			g := randomGraphWithIsolated(t, rng, trial%2 == 0, n, rng.Intn(4*n))
			for maxSize := 1; maxSize <= 40; maxSize++ {
				detect.CheckSweepMatchesReference(t, g, graph.VID(rng.Intn(n)), maxSize)
			}
		}
	})
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	suite := core.NewSuite(core.SuiteOptions{Scale: 0.1, Seed: 3})
	for _, name := range core.DatasetNames() {
		t.Run(name, func(t *testing.T) {
			ds, err := suite.DatasetByName(name)
			if err != nil {
				t.Fatalf("dataset %s: %v", name, err)
			}
			g := ds.Graph
			n := g.NumVertices()
			seeds := []graph.VID{maxDegreeVertex(g)}
			for k := 0; k < 8; k++ {
				seeds = append(seeds, graph.VID(k*n/8))
			}
			for _, seed := range seeds {
				for _, maxSize := range []int{10, 60, 200} {
					detect.CheckSweepMatchesReference(t, g, seed, maxSize)
				}
			}
		})
	}
}
