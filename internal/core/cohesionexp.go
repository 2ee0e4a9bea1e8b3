package core

import (
	"fmt"
	"io"
	"math/rand"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/nullmodel"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/report"
	"gpluscircles/internal/score"
	"gpluscircles/internal/stats"
	"gpluscircles/internal/synth"
)

// CohesionNullStudy calibrates circle cohesion against the
// degree-preserving null model: the observed triangle density of the
// curated circles compared with the density a random graph with the same
// degree sequence would put inside the same member sets.
type CohesionNullStudy struct {
	Dataset string
	// Groups is the number of circles with ≥3 members that entered the
	// study.
	Groups int
	// MeanCohesion is the mean observed triangle density t(C)/C(n_C,3).
	MeanCohesion float64
	// MeanAnalyticNull is the mean expected density under the clamp-free
	// Chung–Lu closed form (nullmodel.ChungLuTriangles).
	MeanAnalyticNull float64
	// MeanEmpiricalNull is the mean expected density under Viger–Latapy
	// rewire samples (Estimator.TriangleExpectation).
	MeanEmpiricalNull float64
}

// CohesionNullCalibration runs the triangle-density null study over the
// data set's groups. The empirical side draws its overlay buffers from
// the arena (nil = private) and its sample topologies from rng, and
// reports its sampling to rec (nil = uninstrumented).
func CohesionNullCalibration(ds *synth.Dataset, samples int, swapsPerEdge float64, rng *rand.Rand, arena *graph.OverlayArena, rec *obs.Recorder) (*CohesionNullStudy, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	if len(ds.Groups) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoGroups, ds.Name)
	}
	est, err := nullmodel.NewEmpiricalEstimator(ds.Graph, nullmodel.EstimatorOptions{
		Samples:      samples,
		SwapsPerEdge: swapsPerEdge,
		RNG:          rng,
		Arena:        arena,
		Recorder:     rec,
	})
	if err != nil {
		return nil, fmt.Errorf("triangle null model: %w", err)
	}
	defer est.Close()

	res := &CohesionNullStudy{Dataset: ds.Name}
	set := graph.NewSet(ds.Graph.NumVertices())
	for _, grp := range ds.Groups {
		set.Fill(grp.Members)
		n := int64(set.Len())
		if n < 3 {
			continue
		}
		triples := float64(n * (n - 1) * (n - 2) / 6)
		res.Groups++
		res.MeanCohesion += float64(graphalgo.SetTriangles(ds.Graph, set)) / triples
		res.MeanAnalyticNull += nullmodel.ChungLuTriangles(ds.Graph, set) / triples
		res.MeanEmpiricalNull += est.TriangleExpectation(set) / triples
	}
	if res.Groups > 0 {
		res.MeanCohesion /= float64(res.Groups)
		res.MeanAnalyticNull /= float64(res.Groups)
		res.MeanEmpiricalNull /= float64(res.Groups)
	}
	return res, nil
}

// runCohesion is the triangle-cohesion experiment: the Fig. 5 panel
// (circles vs. size-matched random-walk sets) and the Fig. 6 panel
// (circles vs. communities across networks) repeated for the cohesion
// score, plus the null-model calibration of the observed densities. The
// full registry run is deliberately ungated; the explicit circlebench
// `-experiment cohesion` selection and the HTTP scoring surface require
// the triangle-cohesion experiment opt-in.
func runCohesion(s *Suite, w io.Writer) error {
	gp, err := s.GPlus()
	if err != nil {
		return err
	}
	fns := []score.Func{score.Cohesion()}
	fig5, err := CirclesVsRandom(gp, Fig5Options{
		Funcs:    fns,
		Context:  s.ScoreContext(gp.Graph),
		Recorder: s.Recorder(),
	}, s.RNG(23))
	if err != nil {
		return err
	}
	if err := renderFig5(w, fig5, s.RNG(24)); err != nil {
		return err
	}

	datasets, err := s.AllGroupDatasets()
	if err != nil {
		return err
	}
	cross, err := crossNetworkWith(datasets, fns, s.ScoreContext)
	if err != nil {
		return err
	}
	tbl := report.NewTable(
		"Cohesion (triangle density) across data sets",
		"Data set", "Kind", "Mean", "Median", "P90")
	for _, dd := range cross.Panels[0].PerDataset {
		summary, err := stats.Summarize(dd.Dist.Scores)
		if err != nil {
			return fmt.Errorf("cohesion summary %s: %w", dd.Dataset, err)
		}
		tbl.AddRow(dd.Dataset, dd.Kind.String(),
			report.Fmt(summary.Mean), report.Fmt(summary.Median), report.Fmt(summary.P90))
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return fmt.Errorf("cohesion spacing: %w", err)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}

	samples := s.opts.NullModelSamples
	if samples <= 0 {
		samples = 3
	}
	calib, err := CohesionNullCalibration(gp, samples, 5, s.RNG(25), s.NullArena(gp.Graph), s.Recorder())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"\nNull calibration over %d circles: observed mean density %.4f vs expected"+
			" %.4g (empirical, %d rewire samples) and %.4g (Chung-Lu analytic).\n"+
			"Reading: curated circles carry several times the closed triangles a random\n"+
			"graph with the same degree sequence puts inside the same member sets -\n"+
			"cohesion separates circles from the null even where cut-based scores do\n"+
			"not. The clamp-free Chung-Lu closed form is only indicative here: on\n"+
			"celebrity circles the unclamped edge probabilities exceed 1 and the\n"+
			"analytic expectation overshoots; the rewired samples are the honest null.\n",
		calib.Groups, calib.MeanCohesion, calib.MeanEmpiricalNull, samples, calib.MeanAnalyticNull)
	if err != nil {
		return fmt.Errorf("cohesion calibration render: %w", err)
	}
	return nil
}
