// Package core implements the paper's evaluation pipeline: graph
// characterization (Table II/III), ego-network overlap analysis
// (Fig. 1/2), degree-distribution fitting (Fig. 3), clustering (Fig. 4),
// the circles-vs-random-sets study (Fig. 5), the four-network comparison
// (Fig. 6), the directed-vs-undirected deviation check (Section IV-B) and
// the ablations called out in DESIGN.md. Each experiment is a pure
// function from data to a result struct; rendering lives in the callers
// and cmd/circlebench.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/powerlaw"
	"gpluscircles/internal/stats"
)

// ErrNoRNG is returned by experiments called without a random source.
var ErrNoRNG = errors.New("core: nil RNG")

// GraphProfile is one data-set column of Table II: the structural
// statistics of Section IV-A.
type GraphProfile struct {
	Name     string
	Vertices int
	Edges    int64
	Directed bool

	// Node separation (Section IV-A3). Diameter is a sampled lower
	// bound refined by double sweeps when the graph is large.
	Diameter int
	ASP      float64

	// Degrees.
	MeanDegree    float64
	MeanInDegree  float64
	MeanOutDegree float64

	// Reciprocity is the fraction of arcs with a reverse arc (1 for
	// undirected graphs).
	Reciprocity float64

	// Assortativity is Newman's degree assortativity across edges.
	Assortativity float64

	// Degeneracy is the maximum k-core number, a cohesion measure.
	Degeneracy int

	// DegreeGini is the Gini coefficient of the degree sequence — the
	// inequality of attention in the network.
	DegreeGini float64

	// Degree-distribution verdict (Section IV-A1): the winning family of
	// the CSN comparison on the in-degree sequence, with its parameters.
	DegreeFit *powerlaw.FitResult

	// Clustering (Section IV-A2): summary of sampled local clustering
	// coefficients.
	Clustering stats.Summary

	// ClusteringCDF is the empirical CDF behind Clustering — the series
	// plotted in Fig. 4. Keeping it on the profile lets a memoized
	// profile serve both Table II and the Fig. 4 plot.
	ClusteringCDF stats.CDF
}

// ProfileOptions bound the sampled estimators in CharacterizeGraph.
type ProfileOptions struct {
	// DistanceSources is the number of BFS sources for diameter/ASP
	// estimation (exact when >= n). Default 64.
	DistanceSources int
	// ClusteringSamples is the number of vertices sampled for the local
	// clustering coefficient distribution. Default 2000.
	ClusteringSamples int
	// FitXmin, when > 0, fixes the cutoff of the degree fit; otherwise
	// the full body (xmin = smallest positive degree) is fitted, matching
	// Fig. 3 which fits the whole in-degree distribution.
	FitXmin int
}

func (o ProfileOptions) withDefaults() ProfileOptions {
	if o.DistanceSources <= 0 {
		o.DistanceSources = 64
	}
	if o.ClusteringSamples <= 0 {
		o.ClusteringSamples = 2000
	}
	return o
}

// CharacterizeGraph computes a GraphProfile, the building block of
// Tables II and III. The independent sections — the distance BFS sweep,
// the clustering samples, the degree fit, and the structural scalars
// (assortativity, k-core, Gini, reciprocity) — run concurrently; each
// sampled section owns a child RNG seeded from rng up front, so the
// profile is deterministic for a given rng regardless of scheduling.
func CharacterizeGraph(name string, g *graph.Graph, opts ProfileOptions, rng *rand.Rand) (*GraphProfile, error) {
	return characterizeGraph(name, g, opts, rng, func() (*powerlaw.FitResult, error) {
		return fitInDegree(g, opts.FitXmin)
	})
}

// characterizeGraph is CharacterizeGraph with the degree fit supplied by
// the caller, so a Suite can share its memoized fit with the profile.
func characterizeGraph(name string, g *graph.Graph, opts ProfileOptions, rng *rand.Rand,
	degreeFit func() (*powerlaw.FitResult, error)) (*GraphProfile, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	opts = opts.withDefaults()

	// Child streams are drawn in a fixed order before fan-out.
	distRNG := rand.New(rand.NewSource(rng.Int63()))
	ccRNG := rand.New(rand.NewSource(rng.Int63()))

	p := &GraphProfile{
		Name:          name,
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		Directed:      g.Directed(),
		MeanDegree:    g.MeanDegree(),
		MeanInDegree:  g.MeanInDegree(),
		MeanOutDegree: g.MeanOutDegree(),
	}

	var wg sync.WaitGroup
	var distErr, fitErr, ccErr error

	wg.Add(1)
	go func() {
		defer wg.Done()
		dist, err := graphalgo.SampledDistances(g, opts.DistanceSources, distRNG)
		if err != nil {
			distErr = fmt.Errorf("distance sampling: %w", err)
			return
		}
		p.Diameter = dist.Diameter
		p.ASP = dist.ASP
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		if g.NumEdges() > 0 {
			p.Reciprocity = float64(graph.ReciprocalEdgeCount(g)) / float64(2*g.NumEdges())
			if g.Directed() {
				p.Reciprocity = float64(graph.ReciprocalEdgeCount(g)) / float64(g.NumEdges())
			}
		}
		p.Assortativity = graphalgo.DegreeAssortativity(g)
		p.Degeneracy = graphalgo.MaxCore(g)
		if gini, err := stats.Gini(stats.CountsToFloats(g.DegreeSequence())); err == nil {
			p.DegreeGini = gini
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		fit, err := degreeFit()
		if err != nil {
			// Degenerate degree data (e.g. regular graphs) is not fatal
			// for a profile; the fit is simply absent.
			if !errors.Is(err, powerlaw.ErrDegenerate) && !errors.Is(err, powerlaw.ErrEmptyTail) {
				fitErr = fmt.Errorf("degree fit: %w", err)
			}
			return
		}
		p.DegreeFit = fit
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		cc, err := graphalgo.SampledClustering(g, opts.ClusteringSamples, ccRNG)
		if err != nil {
			ccErr = fmt.Errorf("clustering sampling: %w", err)
			return
		}
		summary, err := stats.Summarize(cc)
		if err != nil {
			ccErr = fmt.Errorf("clustering summary: %w", err)
			return
		}
		cdf, err := stats.NewCDF(cc)
		if err != nil {
			ccErr = fmt.Errorf("clustering CDF: %w", err)
			return
		}
		p.Clustering = summary
		p.ClusteringCDF = cdf
	}()

	wg.Wait()
	for _, err := range []error{distErr, fitErr, ccErr} {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// fitInDegree runs the CSN comparison on the in-degree sequence. With an
// explicit xmin the models are compared at that cutoff. With xmin <= 0
// the full decision procedure runs:
//
//  1. Fit all three families over the whole body (xmin = smallest
//     positive degree). If log-normal wins AND its fitted mode
//     exp(μ − σ²) lies well inside the support (>= 2·xmin), the body
//     verdict stands: an interior mode is curvature a power law cannot
//     produce — the visual signature of Fig. 3.
//  2. Otherwise the log-normal is monotone-degenerate (mimicking a heavy
//     tail), so the canonical CSN tail scan (xmin by KS minimization)
//     decides — the regime of the Magno crawl, where power law wins.
func fitInDegree(g *graph.Graph, xmin int) (*powerlaw.FitResult, error) {
	degrees := g.InDegreeSequence()
	if xmin > 0 {
		return powerlaw.FitAt(degrees, xmin)
	}
	minPos := 0
	for _, d := range degrees {
		if d > 0 && (minPos == 0 || d < minPos) {
			minPos = d
		}
	}
	if minPos == 0 {
		return nil, powerlaw.ErrEmptyTail
	}
	body, err := powerlaw.FitAt(degrees, minPos)
	if err != nil {
		return nil, err
	}
	if body.Best == "log-normal" {
		mode := math.Exp(body.LogNormal.Mu - body.LogNormal.Sigma*body.LogNormal.Sigma)
		if mode >= 2*float64(minPos) {
			return body, nil
		}
	}
	if scan, err := powerlaw.Fit(degrees); err == nil {
		return scan, nil
	}
	return body, nil
}

// DegreeFitExperiment is the Fig. 3 experiment on its own: fit the three
// families to the in-degree distribution and report the verdict plus the
// CCDF series for plotting.
type DegreeFitExperiment struct {
	Fit *powerlaw.FitResult
	// InDegreeCDF is the empirical CDF of positive in-degrees.
	InDegreeCDF stats.CDF
}

// FitDegrees runs the Fig. 3 experiment.
func FitDegrees(g *graph.Graph, xmin int) (*DegreeFitExperiment, error) {
	fit, err := fitInDegree(g, xmin)
	if err != nil {
		return nil, fmt.Errorf("degree fit: %w", err)
	}
	return newDegreeFitExperiment(g, fit)
}

// newDegreeFitExperiment pairs a fit with the in-degree CDF it was fitted
// to.
func newDegreeFitExperiment(g *graph.Graph, fit *powerlaw.FitResult) (*DegreeFitExperiment, error) {
	var positive []float64
	for _, d := range g.InDegreeSequence() {
		if d > 0 {
			positive = append(positive, float64(d))
		}
	}
	cdf, err := stats.NewCDF(positive)
	if err != nil {
		return nil, fmt.Errorf("in-degree CDF: %w", err)
	}
	return &DegreeFitExperiment{Fit: fit, InDegreeCDF: cdf}, nil
}

// ClusteringExperiment is Fig. 4: the CDF of local clustering
// coefficients.
type ClusteringExperiment struct {
	CDF     stats.CDF
	Summary stats.Summary
}

// MeasureClustering runs the Fig. 4 experiment over `samples` vertices.
func MeasureClustering(g *graph.Graph, samples int, rng *rand.Rand) (*ClusteringExperiment, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	cc, err := graphalgo.SampledClustering(g, samples, rng)
	if err != nil {
		return nil, fmt.Errorf("clustering: %w", err)
	}
	cdf, err := stats.NewCDF(cc)
	if err != nil {
		return nil, fmt.Errorf("clustering CDF: %w", err)
	}
	summary, err := stats.Summarize(cc)
	if err != nil {
		return nil, fmt.Errorf("clustering summary: %w", err)
	}
	return &ClusteringExperiment{CDF: cdf, Summary: summary}, nil
}
