package gpluscircles_test

// Triangle benchmarks (`make bench-tri`): the cohesion scoring
// function, the per-set count it and the empirical triangle null share,
// and the sampled local clustering behind Fig. 4 and the graph profiles.

import (
	"math/rand"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/score"
	"gpluscircles/internal/synth"
)

// BenchmarkCohesionScores measures the cohesion scoring function over
// every circle of the Google+-like data set (the Fig. 5 inner loop).
func BenchmarkCohesionScores(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	ctx := score.NewContext(gp.Graph)
	fns := []score.Func{score.Cohesion()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score.EvaluateGroups(ctx, gp.Groups, fns)
	}
}

// BenchmarkCohesionSetTriangles isolates the per-set kernel walk the
// score and the empirical triangle null share, on the largest circle.
func BenchmarkCohesionSetTriangles(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	largest := gp.Groups[0]
	for _, grp := range gp.Groups {
		if len(grp.Members) > len(largest.Members) {
			largest = grp
		}
	}
	set := graph.SetOf(gp.Graph, largest.Members)
	graphalgo.SetTriangles(gp.Graph, set) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphalgo.SetTriangles(gp.Graph, set)
	}
}

// BenchmarkSampledClustering measures the per-vertex clustering path
// Fig. 4 and the graph profiles use: the suite's 800 sampled vertices,
// or a fifth of the vertices where the graph has fewer than 4,000
// (Google+ at the benchmark scale), since sampling a quarter or more of
// them sweeps every triangle instead. Each vertex is counted by stamping
// its neighbours and walking their rows. Google+ is directed (merged
// out- and in-rows); LiveJournal is undirected with hub rows.
func BenchmarkSampledClustering(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	lj, err := s.LiveJournal()
	if err != nil {
		b.Fatal(err)
	}
	for _, ds := range []*synth.Dataset{gp, lj} {
		b.Run(ds.Name, func(b *testing.B) {
			samples := min(800, ds.Graph.NumVertices()/5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graphalgo.SampledClustering(ds.Graph, samples, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
