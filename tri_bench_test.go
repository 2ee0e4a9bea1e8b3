package gpluscircles_test

// Triangle-kernel benchmarks (`make bench-tri`): the oriented-DAG kernel
// against the pre-kernel forward algorithm it replaced, the overlay
// sharing path, and the cohesion scoring function built on top. The
// serial kernel benchmark doubles as the zero-steady-state-allocation
// check: after the first call caches the parent DAG, repeated counts
// against the same graph must report 0 allocs/op.

import (
	"math/rand"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/score"
	"gpluscircles/internal/synth"
)

// benchGraphs returns the two shared data sets the triangle benchmarks
// sweep, from small/dense to larger/sparser.
func benchGraphs(b *testing.B) []*synth.Dataset {
	b.Helper()
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	tw, err := s.Twitter()
	if err != nil {
		b.Fatal(err)
	}
	return []*synth.Dataset{gp, tw}
}

// naiveTriangles is the pre-kernel forward algorithm, verbatim: project
// directed graphs per call, then count each triangle at its smallest
// vertex by marking forward neighbours. The kernel benchmarks are
// measured against this baseline.
func naiveTriangles(b *testing.B, g *graph.Graph) int64 {
	u := g
	if g.Directed() {
		var err error
		u, err = graph.Undirected(g)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := u.NumVertices()
	marked := graph.NewSet(n)
	var triangles int64
	for v := 0; v < n; v++ {
		adj := u.OutNeighbors(graph.VID(v))
		marked.Clear()
		for _, a := range adj {
			if a > graph.VID(v) {
				marked.Add(a)
			}
		}
		for _, a := range adj {
			if a <= graph.VID(v) {
				continue
			}
			for _, w := range u.OutNeighbors(a) {
				if w > a && marked.Contains(w) {
					triangles++
				}
			}
		}
	}
	return triangles
}

// BenchmarkTriangleKernelCount measures the serial kernel against the
// cached parent DAG. The warm-up call outside the timer pays the
// one-time DAG build; the timed loop must then run allocation-free.
func BenchmarkTriangleKernelCount(b *testing.B) {
	for _, ds := range benchGraphs(b) {
		b.Run(ds.Name, func(b *testing.B) {
			g := ds.Graph
			want := graphalgo.TriangleCount(g, 1) // warm the DAG cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := graphalgo.TriangleCount(g, 1); got != want {
					b.Fatalf("count drifted: %d != %d", got, want)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
		})
	}
}

// BenchmarkTriangleKernelCountParallel measures the volume-balanced
// worker fan-out (GOMAXPROCS workers) on the same cached DAG.
func BenchmarkTriangleKernelCountParallel(b *testing.B) {
	for _, ds := range benchGraphs(b) {
		b.Run(ds.Name, func(b *testing.B) {
			g := ds.Graph
			want := graphalgo.TriangleCount(g, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := graphalgo.TriangleCount(g, 0); got != want {
					b.Fatalf("parallel count drifted: %d != %d", got, want)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
		})
	}
}

// BenchmarkTriangleCountNaive is the replaced implementation, kept as
// the ratchet baseline the kernel's speedup is measured against.
func BenchmarkTriangleCountNaive(b *testing.B) {
	for _, ds := range benchGraphs(b) {
		b.Run(ds.Name, func(b *testing.B) {
			g := ds.Graph
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				sink = naiveTriangles(b, g)
			}
			_ = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
		})
	}
}

// BenchmarkTriangleKernelOverlay measures counting through an overlay of
// the parent graph: the kernel shares the parent's rank permutation and
// draws the overlay DAG from its pool, so steady state stays cheap.
func BenchmarkTriangleKernelOverlay(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	ov := graph.NewOverlay(gp.Graph)
	want := graphalgo.TriangleCount(&ov.Graph, 1) // warm the kernel and pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := graphalgo.TriangleCount(&ov.Graph, 1); got != want {
			b.Fatalf("overlay count drifted: %d != %d", got, want)
		}
	}
}

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
