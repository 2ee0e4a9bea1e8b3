package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"gpluscircles/internal/report"
	"gpluscircles/internal/sample"
	"gpluscircles/internal/score"
	"gpluscircles/internal/stats"
	"gpluscircles/internal/synth"
)

// ErrUnknownExperiment is returned when an experiment ID is not
// registered.
var ErrUnknownExperiment = errors.New("core: unknown experiment")

// Experiment binds one table or figure of the paper to a runnable
// renderer.
type Experiment struct {
	// ID is the registry key, e.g. "fig5".
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Run executes the experiment against the suite and renders its
	// tables/plots to w.
	Run func(s *Suite, w io.Writer) error
}

// Experiments returns the full registry in paper order. The list is
// rebuilt on every call, so callers own the returned slice.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table2", Title: "Table II: McAuley/Leskovec vs. Magno data-set statistics", Run: runTable2},
		{ID: "table3", Title: "Table III: comparison of the evaluated data sets", Run: runTable3},
		{ID: "fig2", Title: "Fig. 1/2: ego-network overlap and membership counts", Run: runFig2},
		{ID: "groupsizes", Title: "Group-size distributions (context for the Fig. 5 size matching)", Run: runGroupSizes},
		{ID: "fig3", Title: "Fig. 3: in-degree distribution fit (CSN method)", Run: runFig3},
		{ID: "fig4", Title: "Fig. 4: CDF of the clustering coefficient", Run: runFig4},
		{ID: "fig5", Title: "Fig. 5: circles vs. random-walk sets (4 scoring functions)", Run: runFig5},
		{ID: "fig6", Title: "Fig. 6: circles vs. communities across four networks", Run: runFig6},
		{ID: "directedness", Title: "Section IV-B: directed vs. undirected score deviation", Run: runDirectedness},
		{ID: "ablation-null", Title: "Ablation: analytic vs. empirical modularity null model", Run: runNullAblation},
		{ID: "ablation-sampler", Title: "Ablation: random-walk vs. uniform vs. snowball baselines", Run: runSamplerAblation},
		{ID: "extended-scores", Title: "Extension: Yang–Leskovec score battery across networks", Run: runExtendedScores},
		{ID: "extension-fang", Title: "Extension: Fang et al. circle categorization (community vs. celebrity)", Run: runFang},
		{ID: "extension-detect", Title: "Extension: ego-centred circle detection vs. curated circles", Run: runDetect},
		{ID: "extension-correlation", Title: "Extension: Yang–Leskovec scoring-function correlation groups", Run: runCorrelation},
		{ID: "extension-evolution", Title: "Extension: creation-phase evolution (Gong et al. context)", Run: runEvolution},
		{ID: "extension-sharing", Title: "Extension: circle-sharing densification (Fang et al. effect)", Run: runSharing},
		{ID: "extension-bridges", Title: "Extension: multi-ego vertices as connectivity bridges (Fig. 1 claim)", Run: runBridges},
		{ID: "extension-localcomm", Title: "Extension: curated circles vs. optimal local communities (conductance sweep)", Run: runLocalComm},
		{ID: "extension-homophily", Title: "Extension: feature homophily of circles (McAuley–Leskovec premise)", Run: runHomophily},
		{ID: "fig6-scale", Title: "Fig. 6 at paper scale: streaming-pipeline community data set", Run: runFig6Scale},
		{ID: "cohesion", Title: "Extension: triangle-density cohesion of circles vs. null models", Run: runCohesion},
		{ID: "scorecard", Title: "Reproduction scorecard: every headline claim, machine-checked", Run: runScorecard},
		{ID: "robustness", Title: "Scorecard robustness across independent seeds", Run: runRobustness},
	}
}

// ExperimentByID resolves a single experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
}

func runTable2(s *Suite, w io.Writer) error {
	gp, err := s.GPlus()
	if err != nil {
		return err
	}
	crawl, err := s.Crawl()
	if err != nil {
		return err
	}
	gpProfile, err := s.Profile(gp)
	if err != nil {
		return fmt.Errorf("profile %s: %w", gp.Name, err)
	}
	crawlProfile, err := s.Profile(crawl)
	if err != nil {
		return fmt.Errorf("profile %s: %w", crawl.Name, err)
	}

	tbl := report.NewTable(
		"Statistical comparison of the ego-joined (McAuley-style) and BFS-crawl (Magno-style) graphs",
		"Metric", crawlProfile.Name, gpProfile.Name)
	addProfileRows(tbl, crawlProfile, gpProfile)
	return tbl.Render(w)
}

// addProfileRows emits Table II rows for two profiles side by side.
func addProfileRows(tbl *report.Table, a, b *GraphProfile) {
	fitDesc := func(p *GraphProfile) string {
		if p.DegreeFit == nil {
			return "n/a"
		}
		switch p.DegreeFit.Best {
		case "power-law":
			return fmt.Sprintf("power-law α=%.2f", p.DegreeFit.PowerLaw.Alpha)
		case "log-normal":
			return fmt.Sprintf("log-normal μ=%.2f σ=%.2f",
				p.DegreeFit.LogNormal.Mu, p.DegreeFit.LogNormal.Sigma)
		default:
			return fmt.Sprintf("exponential λ=%.3f", p.DegreeFit.Exponential.Lambda)
		}
	}
	tbl.AddRow("Vertices", report.FmtInt(int64(a.Vertices)), report.FmtInt(int64(b.Vertices)))
	tbl.AddRow("Edges", report.FmtInt(a.Edges), report.FmtInt(b.Edges))
	tbl.AddRow("Diameter (sampled LB)", fmt.Sprintf("%d", a.Diameter), fmt.Sprintf("%d", b.Diameter))
	tbl.AddRow("ASP", report.Fmt(a.ASP), report.Fmt(b.ASP))
	tbl.AddRow("Degree distribution (in)", fitDesc(a), fitDesc(b))
	tbl.AddRow("Average degree (in)", report.Fmt(a.MeanInDegree), report.Fmt(b.MeanInDegree))
	tbl.AddRow("Average degree (out)", report.Fmt(a.MeanOutDegree), report.Fmt(b.MeanOutDegree))
	tbl.AddRow("Reciprocity", report.Fmt(a.Reciprocity), report.Fmt(b.Reciprocity))
	tbl.AddRow("Assortativity", report.Fmt(a.Assortativity), report.Fmt(b.Assortativity))
	tbl.AddRow("Degeneracy (max k-core)", fmt.Sprintf("%d", a.Degeneracy), fmt.Sprintf("%d", b.Degeneracy))
	tbl.AddRow("Degree Gini", report.Fmt(a.DegreeGini), report.Fmt(b.DegreeGini))
	tbl.AddRow("Clustering coeff. (mean)", report.Fmt(a.Clustering.Mean), report.Fmt(b.Clustering.Mean))
}

func runTable3(s *Suite, w io.Writer) error {
	datasets, err := s.AllGroupDatasets()
	if err != nil {
		return err
	}
	tbl := report.NewTable(
		"Comparison of the evaluated data sets",
		"Graph", "Vertices", "Edges", "Type", "Structure", "# Groups")
	for _, ds := range datasets {
		kind := "undirected"
		if ds.Graph.Directed() {
			kind = "directed"
		}
		tbl.AddRow(
			ds.Name,
			report.FmtInt(int64(ds.Graph.NumVertices())),
			report.FmtInt(ds.Graph.NumEdges()),
			kind,
			ds.Kind.String(),
			report.FmtInt(int64(len(ds.Groups))),
		)
	}
	return tbl.Render(w)
}

func runFig2(s *Suite, w io.Writer) error {
	res, err := s.overlapResult()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"Ego networks: %d; overlapping: %.1f%% (paper: 93.5%%); vertices in >=2 ego nets: %d; max membership: %d\n\n",
		res.NumEgoNets, 100*res.OverlappingEgoFraction, res.MultiEgoVertices, res.MaxMembership); err != nil {
		return fmt.Errorf("overlap summary: %w", err)
	}
	xs, ys := res.MembershipSeries()
	return report.AsciiPlot(w, report.PlotConfig{
		Title:  "Vertex membership count in ego networks (log-log)",
		LogX:   true,
		LogY:   true,
		XLabel: "# ego networks",
		YLabel: "# vertices",
	}, []report.Series{{Name: "vertices", X: xs, Y: ys}})
}

func runGroupSizes(s *Suite, w io.Writer) error {
	datasets, err := s.AllGroupDatasets()
	if err != nil {
		return err
	}
	tbl := report.NewTable("Group sizes per data set",
		"Data set", "Groups", "Min", "Median", "Mean", "P90", "Max")
	series := make([]report.Series, 0, len(datasets))
	for _, ds := range datasets {
		sizes := stats.CountsToFloats(ds.GroupSizes())
		summary, err := stats.Summarize(sizes)
		if err != nil {
			return fmt.Errorf("sizes %s: %w", ds.Name, err)
		}
		tbl.AddRow(ds.Name,
			report.FmtInt(int64(summary.N)),
			report.Fmt(summary.Min), report.Fmt(summary.Median),
			report.Fmt(summary.Mean), report.Fmt(summary.P90), report.Fmt(summary.Max))
		cdf, err := stats.NewCDF(sizes)
		if err != nil {
			return fmt.Errorf("size CDF %s: %w", ds.Name, err)
		}
		series = append(series, report.CDFSeries(ds.Name, cdf))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	return report.AsciiPlot(w, report.PlotConfig{
		Title:  "CDF of group sizes (log x)",
		LogX:   true,
		XLabel: "group size",
		YLabel: "P(X <= x)",
	}, series)
}

func runFig3(s *Suite, w io.Writer) error {
	gp, err := s.GPlus()
	if err != nil {
		return err
	}
	exp, err := s.fitDegrees(gp.Graph)
	if err != nil {
		return err
	}
	f := exp.Fit
	tbl := report.NewTable("In-degree model comparison (CSN)", "Model", "Params", "KS", "LR verdicts")
	tbl.AddRow("power-law", fmt.Sprintf("alpha=%.3f", f.PowerLaw.Alpha),
		report.Fmt(f.KSPowerLaw),
		fmt.Sprintf("vs LN: %s (p=%.3g)", f.PLvsLN.Winner(), f.PLvsLN.PValue))
	tbl.AddRow("log-normal", fmt.Sprintf("mu=%.3f sigma=%.3f", f.LogNormal.Mu, f.LogNormal.Sigma),
		report.Fmt(f.KSLogNormal),
		fmt.Sprintf("vs Exp: %s (p=%.3g)", f.LNvsExp.Winner(), f.LNvsExp.PValue))
	tbl.AddRow("exponential", fmt.Sprintf("lambda=%.4f", f.Exponential.Lambda),
		report.Fmt(f.KSExponential),
		fmt.Sprintf("PL vs Exp: %s (p=%.3g)", f.PLvsExp.Winner(), f.PLvsExp.PValue))
	if err := tbl.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nBest-fitting family: %s (paper: log-normal for the ego-joined graph)\n\n", f.Best); err != nil {
		return fmt.Errorf("fig3 verdict: %w", err)
	}

	// CCDF series on log-log axes, like the paper's Fig. 3.
	ccdfX := exp.InDegreeCDF.X
	ccdfY := make([]float64, len(ccdfX))
	for i := range ccdfX {
		ccdfY[i] = 1 - exp.InDegreeCDF.Y[i]
		if ccdfY[i] <= 0 {
			ccdfY[i] = 1e-9
		}
	}
	modelY := make([]float64, len(ccdfX))
	for i, x := range ccdfX {
		modelY[i] = 1 - f.LogNormal.CDF(int(x))
		if modelY[i] <= 0 {
			modelY[i] = 1e-9
		}
	}
	return report.AsciiPlot(w, report.PlotConfig{
		Title:  "In-degree CCDF with log-normal fit (log-log)",
		LogX:   true,
		LogY:   true,
		XLabel: "in-degree",
		YLabel: "P(X > x)",
	}, []report.Series{
		{Name: "data", X: ccdfX, Y: ccdfY},
		{Name: "log-normal fit", X: ccdfX, Y: modelY},
	})
}

func runFig4(s *Suite, w io.Writer) error {
	gp, err := s.GPlus()
	if err != nil {
		return err
	}
	// The memoized profile already sampled the clustering coefficients
	// (shared with Table II), so Fig. 4 renders without a second sweep.
	prof, err := s.Profile(gp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"Clustering coefficient: mean %.4f (paper: 0.4901), median %.4f, stddev %.4f\n\n",
		prof.Clustering.Mean, prof.Clustering.Median, prof.Clustering.StdDev); err != nil {
		return fmt.Errorf("fig4 summary: %w", err)
	}
	return report.AsciiPlot(w, report.PlotConfig{
		Title:  "CDF of the clustering coefficient",
		XLabel: "clustering coefficient",
		YLabel: "P(X <= x)",
	}, []report.Series{report.CDFSeries("vertices", prof.ClusteringCDF)})
}

func runFig5(s *Suite, w io.Writer) error {
	res, err := s.fig5Result()
	if err != nil {
		return err
	}
	return renderFig5(w, res, s.RNG(19))
}

// renderFig5 renders the panel summary table (means with 95 % bootstrap
// confidence intervals) and per-function plots.
func renderFig5(w io.Writer, res *Fig5Result, rng *rand.Rand) error {
	ciCell := func(scores []float64) string {
		ci, err := stats.MeanCI(scores, 200, 0.95, rng)
		if err != nil {
			return "n/a"
		}
		return fmt.Sprintf("%s [%s, %s]", report.Fmt(ci.Point), report.Fmt(ci.Lo), report.Fmt(ci.Hi))
	}
	tbl := report.NewTable(
		"Circles vs. size-matched random-walk sets (means with 95% bootstrap CI)",
		"Function", "Circles", "Random", "KS separation")
	for _, p := range res.Panels {
		tbl.AddRow(p.Circles.FuncLabel, ciCell(p.Circles.Scores), ciCell(p.Random.Scores), report.Fmt(p.KS))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	for _, p := range res.Panels {
		if _, err := fmt.Fprintln(w); err != nil {
			return fmt.Errorf("fig5 spacing: %w", err)
		}
		err := report.AsciiPlot(w, report.PlotConfig{
			Title:  fmt.Sprintf("CDF of %s", p.Circles.FuncLabel),
			XLabel: p.Circles.FuncName,
			YLabel: "P(X <= x)",
		}, []report.Series{
			report.CDFSeries("circles", p.Circles.CDF),
			report.CDFSeries("random", p.Random.CDF),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func runFig6(s *Suite, w io.Writer) error {
	res, err := s.fig6Result()
	if err != nil {
		return err
	}
	for _, panel := range res.Panels {
		tbl := report.NewTable(
			fmt.Sprintf("%s across data sets", panel.FuncLabel),
			"Data set", "Kind", "Mean", "Median", "P90")
		for _, dd := range panel.PerDataset {
			summary, err := stats.Summarize(dd.Dist.Scores)
			if err != nil {
				return fmt.Errorf("summary %s/%s: %w", panel.FuncName, dd.Dataset, err)
			}
			tbl.AddRow(dd.Dataset, dd.Kind.String(),
				report.Fmt(summary.Mean), report.Fmt(summary.Median), report.Fmt(summary.P90))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		series := make([]report.Series, 0, len(panel.PerDataset))
		for _, dd := range panel.PerDataset {
			series = append(series, report.CDFSeries(dd.Dataset, dd.Dist.CDF))
		}
		err := report.AsciiPlot(w, report.PlotConfig{
			Title:  fmt.Sprintf("CDF of %s", panel.FuncLabel),
			XLabel: panel.FuncName,
			YLabel: "P(X <= x)",
		}, series)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return fmt.Errorf("fig6 spacing: %w", err)
		}
	}
	return nil
}

func runDirectedness(s *Suite, w io.Writer) error {
	tbl := report.NewTable(
		"Directed vs. undirected score deviation (paper: ~2.38%)",
		"Data set", "Mean rel. deviation", "Worst function")
	for _, get := range []func() (*synth.Dataset, error){s.GPlus, s.Twitter} {
		ds, err := get()
		if err != nil {
			return err
		}
		res, err := s.directedness(ds)
		if err != nil {
			return err
		}
		worstName, worst := "", -1.0
		names := make([]string, 0, len(res.PerFunc))
		for name := range res.PerFunc {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if res.PerFunc[name] > worst {
				worstName, worst = name, res.PerFunc[name]
			}
		}
		tbl.AddRow(ds.Name,
			fmt.Sprintf("%.2f%%", 100*res.MeanRelDeviation),
			fmt.Sprintf("%s (%.2f%%)", worstName, 100*worst))
	}
	return tbl.Render(w)
}

func runNullAblation(s *Suite, w io.Writer) error {
	gp, err := s.GPlus()
	if err != nil {
		return err
	}
	samples := s.opts.NullModelSamples
	if samples <= 0 {
		samples = 3
	}
	res, err := CompareNullModelsArena(gp, samples, 5, s.RNG(14), s.NullArena(gp.Graph), s.Recorder())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"Modularity expectation: |analytic - empirical(%d samples)| mean %.3g, max %.3g\n",
		samples, res.MeanAbsDelta, res.MaxAbsDelta)
	if err != nil {
		return fmt.Errorf("null ablation: %w", err)
	}
	return nil
}

func runSamplerAblation(s *Suite, w io.Writer) error {
	gp, err := s.GPlus()
	if err != nil {
		return err
	}
	ctx := s.ScoreContext(gp.Graph)
	walk, err := CirclesVsRandom(gp, Fig5Options{Sampler: sample.RandomWalkSet, Context: ctx}, s.RNG(15))
	if err != nil {
		return err
	}
	uniform, err := CirclesVsRandom(gp, Fig5Options{Sampler: sample.UniformSet, Context: ctx}, s.RNG(16))
	if err != nil {
		return err
	}
	snowball, err := CirclesVsRandom(gp, Fig5Options{Sampler: sample.SnowballSet, Context: ctx}, s.RNG(17))
	if err != nil {
		return err
	}
	tbl := report.NewTable(
		"Baseline choice: sampled-set means and their KS separation from circles",
		"Function", "Walk mean", "Uniform mean", "Snowball mean",
		"KS walk", "KS uniform", "KS snowball")
	for i := range walk.Panels {
		tbl.AddRow(walk.Panels[i].Circles.FuncLabel,
			report.Fmt(walk.Panels[i].Random.Mean),
			report.Fmt(uniform.Panels[i].Random.Mean),
			report.Fmt(snowball.Panels[i].Random.Mean),
			report.Fmt(walk.Panels[i].KS),
			report.Fmt(uniform.Panels[i].KS),
			report.Fmt(snowball.Panels[i].KS))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nSnowball sets (BFS balls) are the most circle-like uncurated"+
		" baseline; the residual KS separation isolates what curation adds.")
	if err != nil {
		return fmt.Errorf("sampler ablation note: %w", err)
	}
	return nil
}

func runFang(s *Suite, w io.Writer) error {
	gp, err := s.GPlus()
	if err != nil {
		return err
	}
	res, err := CategorizeCircles(gp)
	if err != nil {
		return err
	}
	tbl := report.NewTable(
		"Fang et al. shared-circle categories (drives the Fig. 5 long tails)",
		"Category", "Circles", "Mean density", "Mean conductance", "Mean avg degree")
	tbl.AddRow("community", report.FmtInt(int64(res.CommunityCount)),
		report.Fmt(res.CommunityDensity),
		report.Fmt(res.CommunityConductance), report.Fmt(res.CommunityAvgDeg))
	tbl.AddRow("celebrity", report.FmtInt(int64(res.CelebrityCount)),
		report.Fmt(res.CelebrityDensity),
		report.Fmt(res.CelebrityConductance), report.Fmt(res.CelebrityAvgDeg))
	return tbl.Render(w)
}

func runDetect(s *Suite, w io.Writer) error {
	gp, err := s.GPlus()
	if err != nil {
		return err
	}
	res, err := DetectCirclesExperiment(gp, s.RNG(18))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"Ego networks evaluated: %d\nBalanced F1 (detected vs curated): %.3f\n"+
			"Mean conductance: curated circles %.3f vs density-detected groups %.3f\n\n"+
			"Reading: automatically detected (density-based) groups are more closed than the\n"+
			"owner-curated circles — curation encodes social facets, not graph modularity,\n"+
			"which is exactly why circles behave unlike communities in Figs. 5/6.\n",
		res.EgosEvaluated, res.MeanF1, res.CuratedConductance, res.DetectedConductance)
	if err != nil {
		return fmt.Errorf("detect experiment render: %w", err)
	}
	return nil
}

func runExtendedScores(s *Suite, w io.Writer) error {
	datasets, err := s.AllGroupDatasets()
	if err != nil {
		return err
	}
	fns := score.ExtendedFuncs()
	res, err := crossNetworkWith(datasets, fns, s.ScoreContext)
	if err != nil {
		return err
	}
	// Annotate the extremal direction: (low) marks functions where small
	// values indicate community structure.
	direction := map[string]string{}
	for _, f := range fns {
		if f.LowerIsCommunity {
			direction[f.Name] = " (low=community)"
		}
	}
	headers := []string{"Function"}
	for _, ds := range datasets {
		headers = append(headers, ds.Name+" (mean)")
	}
	tbl := report.NewTable("Yang-Leskovec battery, mean score per data set", headers...)
	for _, panel := range res.Panels {
		row := []string{panel.FuncLabel + direction[panel.FuncName]}
		for _, dd := range panel.PerDataset {
			row = append(row, report.Fmt(dd.Dist.Mean))
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(w)
}
