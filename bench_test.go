package gpluscircles_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md's experiment index). Data sets are
// generated once per benchmark scale and shared across iterations, so
// timings measure the experiments themselves, not the generators.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The absolute timings depend on BenchScale (default 0.25 of the
// laptop-scale data sets); the shapes asserted in EXPERIMENTS.md come
// from the full-scale circlebench run.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"gpluscircles/internal/core"
	"gpluscircles/internal/detect"
	"gpluscircles/internal/feature"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/nullmodel"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/powerlaw"
	"gpluscircles/internal/sample"
	"gpluscircles/internal/score"
	"gpluscircles/internal/synth"
)

// benchScale trades benchmark wall-clock against data-set realism.
const benchScale = 0.25

var (
	benchOnce  sync.Once
	benchSuite *core.Suite
	benchGPlus *synth.Dataset
	benchErr   error
)

// suite lazily generates the shared data sets.
func suite(b *testing.B) *core.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite = core.NewSuite(core.SuiteOptions{
			Scale:             benchScale,
			Seed:              99,
			DistanceSources:   24,
			ClusteringSamples: 800,
		})
		// Pre-generate every data set so per-iteration work excludes
		// generation.
		if _, benchErr = benchSuite.AllGroupDatasets(); benchErr != nil {
			return
		}
		if _, benchErr = benchSuite.Crawl(); benchErr != nil {
			return
		}
		benchGPlus, benchErr = benchSuite.GPlus()
	})
	if benchErr != nil {
		b.Fatalf("suite setup: %v", benchErr)
	}
	return benchSuite
}

// BenchmarkTable2DatasetComparison renders Table II: profiles of the
// ego-joined and BFS-crawl graphs (diameter, ASP, degree fits,
// clustering). It times rendering only: the suite has generated the data
// sets and memoized their profiles before the timer starts, so
// generation and building show in BenchmarkSuiteGenerate instead.
func BenchmarkTable2DatasetComparison(b *testing.B) {
	s := suite(b)
	e, err := core.ExperimentByID("table2")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3DatasetSummary renders Table III, the four-data-set
// summary, from data sets the suite has already generated: like Table
// II's benchmark it times rendering only.
func BenchmarkTable3DatasetSummary(b *testing.B) {
	s := suite(b)
	e, err := core.ExperimentByID("table3")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2EgoMembership regenerates Fig. 1/2: ego-network overlap
// and the membership-count distribution.
func BenchmarkFig2EgoMembership(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeOverlap(gp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3DegreeFit regenerates Fig. 3: the CSN three-family fit of
// the in-degree distribution.
func BenchmarkFig3DegreeFit(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FitDegrees(gp.Graph, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Clustering regenerates Fig. 4: the clustering-coefficient
// CDF.
func BenchmarkFig4Clustering(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MeasureClustering(gp.Graph, 800, s.RNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5CirclesVsRandom regenerates Fig. 5: circles vs. size-
// matched random-walk sets under the four scoring functions.
func BenchmarkFig5CirclesVsRandom(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CirclesVsRandom(gp, core.Fig5Options{}, s.RNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6CrossNetwork regenerates Fig. 6: the four-network score
// comparison.
func BenchmarkFig6CrossNetwork(b *testing.B) {
	s := suite(b)
	datasets, err := s.AllGroupDatasets()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CrossNetwork(datasets, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectedVsUndirected regenerates the Section IV-B deviation
// check (directed scores vs. undirected-projection scores).
func BenchmarkDirectedVsUndirected(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DirectednessCheck(gp, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNullModel regenerates the modularity null-model
// ablation (analytic Chung–Lu vs. empirical Viger–Latapy expectation).
func BenchmarkAblationNullModel(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompareNullModels(gp, 2, 3, s.RNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSampler regenerates the baseline-sampler ablation
// (random-walk vs. uniform vertex sets).
func BenchmarkAblationSampler(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CirclesVsRandom(gp, core.Fig5Options{Sampler: sample.UniformSet}, s.RNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionFang regenerates the Fang et al. circle
// categorization (community vs. celebrity circles).
func BenchmarkExtensionFang(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CategorizeCircles(gp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionDetect regenerates the ego-centred circle-detection
// experiment (label propagation per ego network + balanced F1).
func BenchmarkExtensionDetect(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectCirclesExperiment(gp, s.RNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfigurationModel measures stub-matching null-graph
// generation, the alternative to the rewiring chain.
func BenchmarkConfigurationModel(b *testing.B) {
	s := suite(b)
	tw, err := s.Twitter()
	if err != nil {
		b.Fatal(err)
	}
	rng := s.RNG(79)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nullmodel.ConfigurationModel(tw.Graph, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionEvolution measures the creation-phase growth
// simulator (Gong et al. context).
func BenchmarkExtensionEvolution(b *testing.B) {
	cfg := synth.DefaultEvolveConfig()
	cfg.Steps = 30
	cfg.ArrivalsPerStep = 30
	cfg.Checkpoints = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := synth.Evolve(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionSharing measures one circle-sharing densification
// round (Fang et al. effect).
func BenchmarkExtensionSharing(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	cfg := synth.DefaultSharingConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := synth.ApplyCircleSharing(gp, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelScores measures the worker-pool scoring path against
// BenchmarkPaperScores (the serial one).
func BenchmarkParallelScores(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	ctx := score.NewContext(gp.Graph)
	fns := score.PaperFuncs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score.EvaluateGroupsParallel(ctx, gp.Groups, fns, 0)
	}
}

// BenchmarkBinaryGraphIO measures the binary CSR round trip on the
// Google+-like graph.
func BenchmarkBinaryGraphIO(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, gp.Graph); err != nil {
			b.Fatal(err)
		}
		if _, err := graph.ReadBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionBridges regenerates the bridge-vertex analysis
// (betweenness vs. ego membership).
func BenchmarkExtensionBridges(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeBridges(gp, 24, s.RNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionLocalComm regenerates the sweep-vs-circle comparison.
func BenchmarkExtensionLocalComm(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompareLocalCommunities(gp, 20, s.RNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionHomophily regenerates the feature-homophily check.
func BenchmarkExtensionHomophily(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	cfg := feature.DefaultPlantConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := core.MeasureHomophily(gp, cfg, s.RNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampledBetweenness measures Brandes sweeps on the Google+-like
// graph.
func BenchmarkSampledBetweenness(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	rng := s.RNG(80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphalgo.SampledBetweenness(gp.Graph, 16, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks -----------------------------------------

// BenchmarkSuiteGenerate times data-set generation, graph build
// included: each iteration asks a fresh suite for one registry data set
// at the scale perfbench's report set-up uses, so the sub-benchmarks
// add up to the generation a report or a warm circled start runs.
func BenchmarkSuiteGenerate(b *testing.B) {
	for _, name := range core.DatasetNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := core.NewSuite(core.SuiteOptions{Scale: 0.5, Seed: 1})
				if _, err := s.DatasetByName(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphBuild measures CSR construction throughput on the
// Google+-like edge multiset: dense keeps the generator's external IDs,
// which Builder ranks through its flat table; sparse spreads them over
// int64 with a multiplier, so Builder sorts and binary-searches them;
// vids hands graph.FromArcs the ids table and the arcs as VIDs, as the
// dense-ID generators and derived graphs do.
func BenchmarkGraphBuild(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	ids := gp.Graph.ExternalIDs()
	var from, to []graph.VID
	gp.Graph.Edges(func(e graph.Edge) bool {
		from, to = append(from, e.From), append(to, e.To)
		return true
	})
	b.Run("vids", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph.FromArcs(true, ids, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
	spreads := []struct {
		name string
		mul  int64
	}{{"dense", 1}, {"sparse", 1_000_003}}
	for _, sp := range spreads {
		edges := make([][2]int64, 0, gp.Graph.NumEdges())
		gp.Graph.Edges(func(e graph.Edge) bool {
			edges = append(edges, [2]int64{
				sp.mul * gp.Graph.ExternalID(e.From), sp.mul * gp.Graph.ExternalID(e.To),
			})
			return true
		})
		b.Run(sp.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.FromEdges(true, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCutStats measures the scoring primitive: internal/boundary
// edge counting over all circles.
func BenchmarkCutStats(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	set := graph.NewSet(gp.Graph.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, grp := range gp.Groups {
			set.Fill(grp.Members)
			graph.Cut(gp.Graph, set)
		}
	}
}

// BenchmarkPaperScores measures the four scoring functions over all
// circles.
func BenchmarkPaperScores(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	ctx := score.NewContext(gp.Graph)
	fns := score.PaperFuncs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score.EvaluateGroups(ctx, gp.Groups, fns)
	}
}

// BenchmarkBFS measures single-source BFS on the Google+-like graph.
func BenchmarkBFS(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphalgo.BFSDistances(gp.Graph, graph.VID(i%gp.Graph.NumVertices()), graphalgo.Both)
	}
}

// BenchmarkRandomWalkSet measures the Fig. 5 baseline sampler.
func BenchmarkRandomWalkSet(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	rng := s.RNG(77)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sample.RandomWalkSet(gp.Graph, 50, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewire measures the Viger–Latapy swap chain (1 swap per edge).
func BenchmarkRewire(b *testing.B) {
	s := suite(b)
	tw, err := s.Twitter()
	if err != nil {
		b.Fatal(err)
	}
	rng := s.RNG(78)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nullmodel.Rewire(tw.Graph, 1, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelPropagation measures global label-propagation detection
// on the Twitter-like graph.
func BenchmarkLabelPropagation(b *testing.B) {
	s := suite(b)
	tw, err := s.Twitter()
	if err != nil {
		b.Fatal(err)
	}
	rng := s.RNG(81)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.LabelPropagation(tw.Graph, detect.LabelPropagationOptions{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConductanceSweep measures one local-community sweep on the
// Google+-like graph.
func BenchmarkConductanceSweep(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := graph.VID(i % gp.Graph.NumVertices())
		if _, _, err := detect.ConductanceSweep(gp.Graph, seed, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerLawFit measures a single CSN power-law MLE fit on the
// crawl graph's in-degrees.
func BenchmarkPowerLawFit(b *testing.B) {
	s := suite(b)
	crawl, err := s.Crawl()
	if err != nil {
		b.Fatal(err)
	}
	deg := crawl.Graph.InDegreeSequence()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := powerlaw.FitPowerLaw(deg, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent experiment engine benchmarks ----------------------------

// runAllBenchSuite builds a dedicated pre-generated suite so RunAll
// benchmarks time the experiments, not the generators, and so the
// serial/parallel variants start from identical cache states.
func runAllBenchSuite(b *testing.B) *core.Suite {
	b.Helper()
	s := core.NewSuite(core.SuiteOptions{
		Scale:             benchScale,
		Seed:              99,
		DistanceSources:   24,
		ClusteringSamples: 800,
	})
	if _, err := s.AllGroupDatasets(); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Crawl(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkRunAllSerial times the full experiment battery on one
// goroutine — the baseline for BenchmarkRunAllParallel.
func BenchmarkRunAllSerial(b *testing.B) {
	s := runAllBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunAllCtx(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllParallel times the full battery fanned out over
// GOMAXPROCS workers; output order (and bytes) match the serial run.
func BenchmarkRunAllParallel(b *testing.B) {
	s := runAllBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunAllParallelCtx(context.Background(), io.Discard, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// nullBenchArena builds a shared overlay arena for the graph and warms
// it with one throwaway estimator round, so the benchmark loop measures
// the allocation-free steady state (pooled overlays + pooled rewirer
// scratch) rather than first-call warm-up.
func nullBenchArena(b *testing.B, s *core.Suite, g *graph.Graph, samples, workers int) *graph.OverlayArena {
	b.Helper()
	arena := graph.NewOverlayArena(g)
	est, err := nullmodel.NewEmpiricalEstimator(g, nullmodel.EstimatorOptions{
		Samples: samples, SwapsPerEdge: 1, RNG: s.RNG(-1), Workers: workers, Arena: arena,
	})
	if err != nil {
		b.Fatal(err)
	}
	est.Close()
	return arena
}

// BenchmarkEmpiricalExpectation times the Viger-Latapy null-model
// sampler on one worker (32 samples, 1 swap per edge) drawing overlay
// buffers from a warmed shared arena.
func BenchmarkEmpiricalExpectation(b *testing.B) {
	s := suite(b)
	tw, err := s.Twitter()
	if err != nil {
		b.Fatal(err)
	}
	arena := nullBenchArena(b, s, tw.Graph, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := nullmodel.NewEmpiricalEstimator(tw.Graph, nullmodel.EstimatorOptions{
			Samples: 32, SwapsPerEdge: 1, RNG: s.RNG(int64(i)), Workers: 1, Arena: arena,
		})
		if err != nil {
			b.Fatal(err)
		}
		est.Close()
	}
}

// BenchmarkEmpiricalExpectationParallel times the same sampling fanned
// out over GOMAXPROCS workers with seeded child RNG streams.
func BenchmarkEmpiricalExpectationParallel(b *testing.B) {
	s := suite(b)
	tw, err := s.Twitter()
	if err != nil {
		b.Fatal(err)
	}
	arena := nullBenchArena(b, s, tw.Graph, 32, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := nullmodel.NewEmpiricalEstimator(tw.Graph, nullmodel.EstimatorOptions{
			Samples: 32, SwapsPerEdge: 1, RNG: s.RNG(int64(i)), Arena: arena,
		})
		if err != nil {
			b.Fatal(err)
		}
		est.Close()
	}
}

// BenchmarkCharacterizeParallel times the graph profile whose
// independent sections (BFS sweep, clustering samples, degree fit,
// structural scalars) run concurrently.
func BenchmarkCharacterizeParallel(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	opts := core.ProfileOptions{DistanceSources: 24, ClusteringSamples: 800}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CharacterizeGraph(gp.Name, gp.Graph, opts, s.RNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecorderDisabled pins the observability contract: with a nil
// *obs.Recorder every handle is nil and every instrumentation call on
// the hot path — counter add, timer observe, span lifecycle — must cost
// a nil check and nothing else. The 0 allocs/op result is asserted
// in-benchmark so `make bench` (and the CI smoke run) fails loudly if
// the disabled path ever starts allocating.
func BenchmarkRecorderDisabled(b *testing.B) {
	var rec *obs.Recorder
	counter := rec.Counter("bench.counter")
	timer := rec.Timer("bench.timer")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counter.Inc()
		counter.Add(int64(i))
		timer.Observe(0)
		sp := rec.StartSpan("bench")
		child := sp.StartChild("inner")
		child.SetAttr("k", "v")
		child.End()
		sp.End()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() {
		counter.Inc()
		timer.Observe(0)
		rec.StartSpan("x").End()
	}); allocs != 0 {
		b.Fatalf("disabled recorder allocates: %v allocs/op", allocs)
	}
}

// --- Paper-scale pipeline benchmarks ------------------------------------

// TestMain stamps the runner environment into the output stream when
// benchmarks are being run, so recorded BENCH_*.json files carry the
// core count the numbers were measured on. `circlebench compare` parses
// the line back out and warns when two files disagree. Plain test runs
// stay silent: the line only matters inside recorded benchmark streams.
func TestMain(m *testing.M) {
	flag.Parse()
	if f := flag.Lookup("test.bench"); f != nil && f.Value.String() != "" {
		fmt.Printf("benchenv: cpus=%d gomaxprocs=%d goos=%s goarch=%s\n",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	}
	os.Exit(m.Run())
}

// benchDensePairs extracts the gplus edge multiset as dense vertex
// indices, the input of the stream builder's dense mode.
func benchDensePairs(b *testing.B) ([][2]int64, int64) {
	b.Helper()
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([][2]int64, 0, gp.Graph.NumEdges())
	gp.Graph.Edges(func(e graph.Edge) bool {
		pairs = append(pairs, [2]int64{int64(e.From), int64(e.To)})
		return true
	})
	return pairs, int64(gp.Graph.NumVertices())
}

// BenchmarkStreamBuilderBuild measures the two-pass replay protocol:
// the edge multiset is streamed twice and never buffered, so the only
// O(m) allocation is the CSR adjacency itself.
func BenchmarkStreamBuilderBuild(b *testing.B) {
	pairs, n := benchDensePairs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb, err := graph.NewStreamBuilder(true, graph.StreamOptions{DenseVertices: n})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pairs {
			sb.AddEdge(p[0], p[1])
		}
		if err := sb.Rewind(); err != nil {
			b.Fatal(err)
		}
		for _, p := range pairs {
			sb.AddEdge(p[0], p[1])
		}
		if _, err := sb.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalePipeline runs the fig6-scale experiment end to end:
// sharded synthesis through the streaming builder, then the paper's
// four scoring functions over the resulting communities. The default
// run keeps the data set floor-sized; GPC_SCALE=full selects the
// ≥3M-vertex / ≥50M-edge configuration the paper's baselines demand
// (minutes per iteration — pair it with -benchtime=1x and a raised
// -timeout, as `make bench-scale` does). The reported sys-bytes metric
// is the Go runtime's total OS footprint after the run, the
// peak-memory evidence for the streaming pipeline.
func BenchmarkScalePipeline(b *testing.B) {
	scale := 0.05 // floor-sized: 1500 vertices, 20 communities
	if os.Getenv("GPC_SCALE") == "full" {
		scale = 100 // 3M vertices, 30k communities
	}
	exp, err := core.ExperimentByID("fig6-scale")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh suite per iteration: data sets are memoized, and the
		// generation is the thing being measured.
		s := core.NewSuite(core.SuiteOptions{Scale: scale, Seed: 1})
		if err := exp.Run(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Sys), "sys-bytes")
}
