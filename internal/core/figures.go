package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/nullmodel"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/sample"
	"gpluscircles/internal/score"
	"gpluscircles/internal/stats"
	"gpluscircles/internal/synth"
)

// ErrNoGroups is returned when an experiment needs groups and the data
// set has none.
var ErrNoGroups = errors.New("core: data set has no groups")

// ScoreDistribution is the scored CDF of one group population under one
// function.
type ScoreDistribution struct {
	FuncName  string
	FuncLabel string
	Scores    []float64
	CDF       stats.CDF
	Mean      float64
}

// distributionOf evaluates one function's score vector into a
// ScoreDistribution.
func distributionOf(f score.Func, scores []float64) (ScoreDistribution, error) {
	cdf, err := stats.NewCDF(scores)
	if err != nil {
		return ScoreDistribution{}, fmt.Errorf("%s CDF: %w", f.Name, err)
	}
	return ScoreDistribution{
		FuncName:  f.Name,
		FuncLabel: f.Label,
		Scores:    scores,
		CDF:       cdf,
		Mean:      stats.Mean(scores),
	}, nil
}

// Fig5Result is the circles-vs-random study (Section V-A): for each
// scoring function, the CDF over circles and over size-matched random
// sets, plus the separation between them.
type Fig5Result struct {
	// Panels are ordered like the paper: Average Degree, Ratio Cut,
	// Conductance, Modularity (or whatever functions were passed).
	Panels []Fig5Panel
}

// Fig5Panel is one subplot of Fig. 5.
type Fig5Panel struct {
	Circles ScoreDistribution
	Random  ScoreDistribution
	// KS is the Kolmogorov–Smirnov distance between the two CDFs; large
	// values mean the function cleanly separates circles from random
	// sets (the paper's "pronounced structures" claim).
	KS float64
}

// Fig5Options configures the circles-vs-random experiment.
type Fig5Options struct {
	// Funcs are the scoring functions; defaults to score.PaperFuncs().
	Funcs []score.Func
	// Sampler draws the baseline sets; defaults to sample.RandomWalkSet.
	Sampler sample.Sampler
	// NullModelSamples > 0 switches Modularity's expectation from the
	// analytic Chung–Lu formula to an empirical Viger–Latapy estimate
	// with that many random graphs.
	NullModelSamples int
	// NullModelSwapsPerEdge tunes the rewiring chain (default 5).
	NullModelSwapsPerEdge float64
	// Context, when non-nil, supplies a shared (typically
	// suite-memoized) scoring context. It is honored only when
	// NullModelSamples == 0; the empirical null model always builds a
	// private context so the shared one stays analytic.
	Context *score.Context
	// NullArena, when non-nil, supplies pooled overlay buffers for the
	// empirical null model (typically Suite.NullArena). The estimator's
	// overlays are returned to it before CirclesVsRandom returns.
	NullArena *graph.OverlayArena
	// Recorder, when non-nil, instruments the private scoring context
	// and empirical estimator (typically Suite.Recorder). It is ignored
	// when a shared Context is honored — that context carries its own.
	Recorder *obs.Recorder
}

// CirclesVsRandom runs the Fig. 5 experiment: score the data set's groups
// and equally sized sampled sets under every function.
func CirclesVsRandom(ds *synth.Dataset, opts Fig5Options, rng *rand.Rand) (*Fig5Result, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	if len(ds.Groups) == 0 {
		return nil, ErrNoGroups
	}
	fns := opts.Funcs
	if len(fns) == 0 {
		fns = score.PaperFuncs()
	}
	sampler := opts.Sampler
	if sampler == nil {
		sampler = sample.RandomWalkSet
	}

	ctx := opts.Context
	if ctx == nil || opts.NullModelSamples > 0 {
		var err error
		var done func()
		ctx, done, err = newScoringContext(ds.Graph, opts.NullModelSamples, opts.NullModelSwapsPerEdge, rng, opts.NullArena, opts.Recorder)
		if err != nil {
			return nil, err
		}
		// The private context dies with this call, so the estimator's
		// overlays can go back to the arena once scoring is complete.
		defer done()
	}

	circleScores := score.EvaluateGroupsParallel(ctx, ds.Groups, fns)

	sizes := ds.GroupSizes()
	sets, err := sample.MatchSizes(ds.Graph, sizes, sampler, rng)
	if err != nil {
		return nil, fmt.Errorf("baseline sampling: %w", err)
	}
	randomGroups := make([]score.Group, len(sets))
	for i, members := range sets {
		randomGroups[i] = score.Group{Name: fmt.Sprintf("random%04d", i), Members: members}
	}
	randomScores := score.EvaluateGroupsParallel(ctx, randomGroups, fns)

	res := &Fig5Result{Panels: make([]Fig5Panel, 0, len(fns))}
	for _, f := range fns {
		c, err := distributionOf(f, circleScores[f.Name])
		if err != nil {
			return nil, err
		}
		r, err := distributionOf(f, randomScores[f.Name])
		if err != nil {
			return nil, err
		}
		res.Panels = append(res.Panels, Fig5Panel{
			Circles: c,
			Random:  r,
			KS:      stats.KSDistance(c.CDF, r.CDF),
		})
	}
	return res, nil
}

// newScoringContext builds a score.Context, optionally swapping in the
// empirical null model backed by pooled overlays from the arena (nil
// arena = private). The returned cleanup releases the estimator's
// overlays; call it once the context is no longer used for scoring.
func newScoringContext(g *graph.Graph, nullSamples int, swapsPerEdge float64, rng *rand.Rand, arena *graph.OverlayArena, rec *obs.Recorder) (*score.Context, func(), error) {
	ctx := score.NewContext(g)
	ctx.Recorder = rec
	if nullSamples <= 0 {
		return ctx, func() {}, nil
	}
	if swapsPerEdge <= 0 {
		swapsPerEdge = 5
	}
	est, err := nullmodel.NewEmpiricalEstimator(g, nullmodel.EstimatorOptions{
		Samples:      nullSamples,
		SwapsPerEdge: swapsPerEdge,
		RNG:          rng,
		Arena:        arena,
		Recorder:     rec,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("empirical null model: %w", err)
	}
	ctx.NullExpectation = est.Func()
	return ctx, est.Close, nil
}

// Fig6Result is the four-network comparison (Section V-B): per scoring
// function, one CDF per data set.
type Fig6Result struct {
	Panels []Fig6Panel
}

// Fig6Panel is one subplot of Fig. 6.
type Fig6Panel struct {
	FuncName  string
	FuncLabel string
	// PerDataset is ordered like the data sets passed to CrossNetwork.
	PerDataset []DatasetDistribution
}

// DatasetDistribution names a ScoreDistribution with its data set.
type DatasetDistribution struct {
	Dataset string
	Kind    synth.GroupKind
	Dist    ScoreDistribution
}

// CrossNetwork runs the Fig. 6 experiment over any number of data sets.
func CrossNetwork(datasets []*synth.Dataset, fns []score.Func) (*Fig6Result, error) {
	return crossNetworkWith(datasets, fns, func(g *graph.Graph) *score.Context {
		return score.NewContext(g)
	})
}

// crossNetworkWith is CrossNetwork with an injectable context source, so
// suite-driven runs reuse the memoized per-graph contexts.
func crossNetworkWith(datasets []*synth.Dataset, fns []score.Func, ctxOf func(*graph.Graph) *score.Context) (*Fig6Result, error) {
	if len(fns) == 0 {
		fns = score.PaperFuncs()
	}
	perDataset := make([]map[string][]float64, len(datasets))
	for i, ds := range datasets {
		if len(ds.Groups) == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoGroups, ds.Name)
		}
		// The paper-scale community sets hold thousands of groups;
		// worker-pool evaluation matches the serial results exactly.
		perDataset[i] = score.EvaluateGroupsParallel(ctxOf(ds.Graph), ds.Groups, fns)
	}
	res := &Fig6Result{Panels: make([]Fig6Panel, 0, len(fns))}
	for _, f := range fns {
		panel := Fig6Panel{FuncName: f.Name, FuncLabel: f.Label}
		for i, ds := range datasets {
			dist, err := distributionOf(f, perDataset[i][f.Name])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ds.Name, err)
			}
			panel.PerDataset = append(panel.PerDataset, DatasetDistribution{
				Dataset: ds.Name,
				Kind:    ds.Kind,
				Dist:    dist,
			})
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

// DirectednessResult quantifies the Section IV-B check: how much scores
// change when a directed graph is collapsed onto its undirected
// projection (the paper reports ≈ 2.38 % mean deviation).
type DirectednessResult struct {
	Dataset string
	// MeanRelDeviation is the mean over groups and functions of
	// |directed − undirected| / max(|directed|, |undirected|), ignoring
	// pairs where both scores are 0.
	MeanRelDeviation float64
	// PerFunc breaks the deviation down by scoring function.
	PerFunc map[string]float64
}

// DirectednessCheck scores the data set's groups on the directed graph
// and on its undirected projection and reports relative deviations.
func DirectednessCheck(ds *synth.Dataset, fns []score.Func) (*DirectednessResult, error) {
	if !ds.Graph.Directed() {
		return nil, fmt.Errorf("directedness check: %s is already undirected", ds.Name)
	}
	und, err := graph.Undirected(ds.Graph)
	if err != nil {
		return nil, fmt.Errorf("projection: %w", err)
	}
	return directednessWith(ds, und, score.NewContext(ds.Graph), score.NewContext(und), fns)
}

// directednessWith is the DirectednessCheck body with the projection and
// both scoring contexts injected, so suite-driven runs reuse the
// memoized projection and contexts instead of rebuilding them.
func directednessWith(ds *synth.Dataset, und *graph.Graph, dirCtx, undCtx *score.Context, fns []score.Func) (*DirectednessResult, error) {
	if !ds.Graph.Directed() {
		return nil, fmt.Errorf("directedness check: %s is already undirected", ds.Name)
	}
	if len(ds.Groups) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoGroups, ds.Name)
	}
	if len(fns) == 0 {
		fns = score.PaperFuncs()
	}
	// The projection preserves the vertex set and external IDs, so dense
	// indices are identical and groups carry over unchanged.
	dirScores := score.EvaluateGroupsParallel(dirCtx, ds.Groups, fns)
	undScores := score.EvaluateGroupsParallel(undCtx, ds.Groups, fns)

	res := &DirectednessResult{Dataset: ds.Name, PerFunc: make(map[string]float64, len(fns))}
	var totalSum float64
	var totalCount int
	for _, f := range fns {
		var sum float64
		var count int
		for i := range dirScores[f.Name] {
			a, b := dirScores[f.Name][i], undScores[f.Name][i]
			den := math.Max(math.Abs(a), math.Abs(b))
			//lint:ignore floateq max of two absolute values is exactly zero only when both scores are; guards 0/0
			if den == 0 {
				continue
			}
			sum += math.Abs(a-b) / den
			count++
		}
		if count > 0 {
			res.PerFunc[f.Name] = sum / float64(count)
		}
		totalSum += sum
		totalCount += count
	}
	if totalCount > 0 {
		res.MeanRelDeviation = totalSum / float64(totalCount)
	}
	return res, nil
}

// NullModelAblation compares the analytic Chung–Lu modularity expectation
// against the empirical Viger–Latapy estimate on the same groups.
type NullModelAblation struct {
	Dataset string
	// MeanAbsDelta is the mean |modularity_analytic − modularity_empirical|
	// over groups.
	MeanAbsDelta float64
	// MaxAbsDelta is the largest such difference.
	MaxAbsDelta float64
}

// CompareNullModelsArena runs the modularity null-model ablation. The
// empirical estimator draws its sample buffers from arena (typically
// Suite.NullArena, so repeated ablation runs reuse them; nil allocates
// privately). rec, when non-nil, receives the sampler's rewire and arena
// counters.
func CompareNullModelsArena(ds *synth.Dataset, samples int, swapsPerEdge float64, rng *rand.Rand, arena *graph.OverlayArena, rec *obs.Recorder) (*NullModelAblation, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	if len(ds.Groups) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoGroups, ds.Name)
	}
	mod := []score.Func{score.Modularity()}

	analytic := score.EvaluateGroupsParallel(score.NewContext(ds.Graph), ds.Groups, mod)

	ctx, done, err := newScoringContext(ds.Graph, samples, swapsPerEdge, rng, arena, rec)
	if err != nil {
		return nil, err
	}
	defer done()
	empirical := score.EvaluateGroupsParallel(ctx, ds.Groups, mod)

	res := &NullModelAblation{Dataset: ds.Name}
	for i := range analytic["modularity"] {
		d := math.Abs(analytic["modularity"][i] - empirical["modularity"][i])
		res.MeanAbsDelta += d
		if d > res.MaxAbsDelta {
			res.MaxAbsDelta = d
		}
	}
	res.MeanAbsDelta /= float64(len(analytic["modularity"]))
	return res, nil
}
