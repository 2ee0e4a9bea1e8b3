package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/sample"
	"gpluscircles/internal/score"
	"gpluscircles/internal/synth"
)

// testSuite returns a small, fast suite shared by the integration tests.
func testSuite() *Suite {
	return NewSuite(SuiteOptions{
		Scale:             0.3,
		Seed:              7,
		DistanceSources:   16,
		ClusteringSamples: 300,
	})
}

func TestSuiteDatasetsGenerateAndCache(t *testing.T) {
	s := testSuite()
	a, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("GPlus not cached")
	}
	all, err := s.AllGroupDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("datasets = %d, want 4", len(all))
	}
	names := []string{"Google+", "Twitter", "LiveJournal", "Orkut"}
	for i, ds := range all {
		if ds.Name != names[i] {
			t.Errorf("dataset %d = %s, want %s", i, ds.Name, names[i])
		}
		if len(ds.Groups) == 0 {
			t.Errorf("dataset %s has no groups", ds.Name)
		}
	}
}

func TestCharacterizeGraphProfile(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	p, err := CharacterizeGraph(gp.Name, gp.Graph, s.profileOptions(), s.RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Vertices != gp.Graph.NumVertices() || p.Edges != gp.Graph.NumEdges() {
		t.Errorf("counts mismatch: %+v", p)
	}
	if p.Diameter < 2 {
		t.Errorf("diameter = %d, implausibly small", p.Diameter)
	}
	if p.ASP <= 1 {
		t.Errorf("ASP = %v, implausibly small", p.ASP)
	}
	if p.Clustering.Mean <= 0 || p.Clustering.Mean >= 1 {
		t.Errorf("clustering mean = %v, outside (0,1)", p.Clustering.Mean)
	}
	if p.Reciprocity <= 0 || p.Reciprocity > 1 {
		t.Errorf("reciprocity = %v", p.Reciprocity)
	}
}

func TestCharacterizeNilRNG(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CharacterizeGraph("x", gp.Graph, ProfileOptions{}, nil); !errors.Is(err, ErrNoRNG) {
		t.Errorf("err = %v, want ErrNoRNG", err)
	}
}

// TestTable2Contrast asserts the crawl-methodology contrast of Table II:
// the ego-joined graph is denser and more compact than the BFS crawl, and
// the degree-fit verdicts differ (log-normal vs power-law).
func TestTable2Contrast(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	crawl, err := s.Crawl()
	if err != nil {
		t.Fatal(err)
	}
	gpP, err := CharacterizeGraph(gp.Name, gp.Graph, s.profileOptions(), s.RNG(2))
	if err != nil {
		t.Fatal(err)
	}
	crawlP, err := CharacterizeGraph(crawl.Name, crawl.Graph, s.profileOptions(), s.RNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if gpP.MeanDegree <= 1.5*crawlP.MeanDegree {
		t.Errorf("ego mean degree %.1f not >> crawl %.1f", gpP.MeanDegree, crawlP.MeanDegree)
	}
	if gpP.DegreeFit == nil || crawlP.DegreeFit == nil {
		t.Fatal("missing degree fits")
	}
	if got := gpP.DegreeFit.Best; got != "log-normal" {
		t.Errorf("ego-joined degree fit = %s, want log-normal (Fig. 3)", got)
	}
	if got := crawlP.DegreeFit.Best; got != "power-law" {
		t.Errorf("crawl degree fit = %s, want power-law (Table II)", got)
	}
}

func TestAnalyzeOverlap(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeOverlap(gp)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumEgoNets == 0 {
		t.Fatal("no ego nets")
	}
	// The shared-pool design must make most ego networks overlap
	// (paper: 93.5%).
	if res.OverlappingEgoFraction < 0.8 {
		t.Errorf("overlapping fraction = %.2f, want >= 0.8", res.OverlappingEgoFraction)
	}
	if res.MultiEgoVertices == 0 {
		t.Error("no multi-ego vertices")
	}
	xs, ys := res.MembershipSeries()
	if len(xs) == 0 || len(xs) != len(ys) {
		t.Errorf("membership series lengths %d/%d", len(xs), len(ys))
	}
}

func TestAnalyzeOverlapRequiresEgoData(t *testing.T) {
	s := testSuite()
	lj, err := s.LiveJournal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeOverlap(lj); !errors.Is(err, ErrNoEgoData) {
		t.Errorf("err = %v, want ErrNoEgoData", err)
	}
}

// TestFig5Separation asserts the Section V-A findings: every scoring
// function separates circles from random-walk sets, with circles higher
// on Average Degree and Modularity and lower on Conductance.
func TestFig5Separation(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CirclesVsRandom(gp, Fig5Options{}, s.RNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 4 {
		t.Fatalf("panels = %d, want 4", len(res.Panels))
	}
	byName := map[string]Fig5Panel{}
	for _, p := range res.Panels {
		byName[p.Circles.FuncName] = p
		if p.KS < 0.2 {
			t.Errorf("%s: KS separation %.3f too small — circles not pronounced",
				p.Circles.FuncName, p.KS)
		}
	}
	if p := byName["avgdeg"]; p.Circles.Mean <= p.Random.Mean {
		t.Errorf("avgdeg: circles %.2f <= random %.2f, want higher", p.Circles.Mean, p.Random.Mean)
	}
	if p := byName["conductance"]; p.Circles.Mean >= p.Random.Mean {
		t.Errorf("conductance: circles %.3f >= random %.3f, want lower", p.Circles.Mean, p.Random.Mean)
	}
	if p := byName["modularity"]; p.Circles.Mean <= p.Random.Mean {
		t.Errorf("modularity: circles %.4g <= random %.4g, want higher", p.Circles.Mean, p.Random.Mean)
	}
}

// TestFig6CirclesVsCommunities asserts the paper's central Section V-B
// findings on the four-network comparison.
func TestFig6CirclesVsCommunities(t *testing.T) {
	s := testSuite()
	datasets, err := s.AllGroupDatasets()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CrossNetwork(datasets, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(fn, ds string) ScoreDistribution {
		for _, panel := range res.Panels {
			if panel.FuncName != fn {
				continue
			}
			for _, dd := range panel.PerDataset {
				if dd.Dataset == ds {
					return dd.Dist
				}
			}
		}
		t.Fatalf("missing %s/%s", fn, ds)
		return ScoreDistribution{}
	}

	// Ratio Cut: "vanishing relative frequencies" for communities,
	// "visibly higher" for circles; Google+ above Twitter.
	for _, circles := range []string{"Google+", "Twitter"} {
		for _, comms := range []string{"LiveJournal", "Orkut"} {
			c, m := get("ratiocut", circles), get("ratiocut", comms)
			if c.Mean <= m.Mean {
				t.Errorf("ratiocut: %s mean %.4g <= %s mean %.4g", circles, c.Mean, comms, m.Mean)
			}
		}
	}
	if gp, tw := get("ratiocut", "Google+"), get("ratiocut", "Twitter"); gp.Mean <= tw.Mean {
		t.Errorf("ratiocut: Google+ %.4g <= Twitter %.4g, paper has G+ higher", gp.Mean, tw.Mean)
	}

	// Conductance: ~90% of circles above 0.9 in the paper; communities
	// spread lower. We require the qualitative ordering plus a high
	// circle share above 0.75.
	for _, circles := range []string{"Google+", "Twitter"} {
		c := get("conductance", circles)
		above := c.CDF.FractionAbove(0.75)
		if above < 0.6 {
			t.Errorf("conductance: only %.2f of %s circles above 0.75", above, circles)
		}
	}
	for _, comms := range []string{"LiveJournal", "Orkut"} {
		m := get("conductance", comms)
		c := get("conductance", "Google+")
		if m.Mean >= c.Mean {
			t.Errorf("conductance: %s mean %.3f >= Google+ %.3f", comms, m.Mean, c.Mean)
		}
	}

	// Average Degree: similar CDF shapes; every data set must produce
	// internally connected groups (positive means).
	for _, ds := range datasets {
		if d := get("avgdeg", ds.Name); d.Mean <= 0 {
			t.Errorf("avgdeg: %s mean %.3f <= 0", ds.Name, d.Mean)
		}
	}
}

func TestDirectednessSmallDeviation(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	res, err := DirectednessCheck(gp, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports ~2.38%; our synthetic graph should stay in the
	// same regime (well under 30%).
	if res.MeanRelDeviation > 0.3 {
		t.Errorf("mean relative deviation %.3f too large", res.MeanRelDeviation)
	}
	if len(res.PerFunc) == 0 {
		t.Error("no per-function deviations")
	}
}

func TestDirectednessRejectsUndirected(t *testing.T) {
	s := testSuite()
	lj, err := s.LiveJournal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DirectednessCheck(lj, nil); err == nil {
		t.Error("undirected data set accepted")
	}
}

func TestCompareNullModels(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompareNullModelsArena(gp, 2, 3, s.RNG(5), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic and empirical expectations should agree closely on the
	// modularity scale (which is normalized by 2m).
	if res.MeanAbsDelta > 0.05 {
		t.Errorf("mean |analytic-empirical| modularity delta %.4f > 0.05", res.MeanAbsDelta)
	}
}

func TestCirclesVsRandomUniformSampler(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CirclesVsRandom(gp, Fig5Options{Sampler: sample.UniformSet}, s.RNG(6))
	if err != nil {
		t.Fatal(err)
	}
	// Uniform sets are even less community-like than walk sets: circles
	// must separate at least as clearly on average degree.
	for _, p := range res.Panels {
		if p.Circles.FuncName == "avgdeg" && p.Circles.Mean <= p.Random.Mean {
			t.Errorf("avgdeg: circles %.2f <= uniform %.2f", p.Circles.Mean, p.Random.Mean)
		}
	}
}

func TestCirclesVsRandomValidation(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CirclesVsRandom(gp, Fig5Options{}, nil); !errors.Is(err, ErrNoRNG) {
		t.Errorf("err = %v, want ErrNoRNG", err)
	}
	empty := &synth.Dataset{Name: "empty", Graph: gp.Graph}
	if _, err := CirclesVsRandom(empty, Fig5Options{}, rand.New(rand.NewSource(1))); !errors.Is(err, ErrNoGroups) {
		t.Errorf("err = %v, want ErrNoGroups", err)
	}
}

func TestFitDegreesExperiment(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := FitDegrees(gp.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Fit.Best == "" || exp.InDegreeCDF.Len() == 0 {
		t.Errorf("incomplete experiment: %+v", exp)
	}
}

func TestMeasureClustering(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := MeasureClustering(gp.Graph, 200, s.RNG(8))
	if err != nil {
		t.Fatal(err)
	}
	want := 200
	if n := gp.Graph.NumVertices(); n < want {
		want = n // SampledClustering degrades to the full computation
	}
	if exp.Summary.N != want {
		t.Errorf("samples = %d, want %d", exp.Summary.N, want)
	}
	if exp.Summary.Mean < 0 || exp.Summary.Mean > 1 {
		t.Errorf("mean CC = %v outside [0,1]", exp.Summary.Mean)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		ids[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "directedness"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
	if _, err := ExperimentByID("nope"); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("err = %v, want ErrUnknownExperiment", err)
	}
	if e, err := ExperimentByID("fig5"); err != nil || e.ID != "fig5" {
		t.Errorf("ExperimentByID(fig5) = %+v, %v", e, err)
	}
}

// TestRunAllRenders executes every experiment end-to-end at small scale
// and sanity-checks the rendered output.
func TestRunAllRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("integration render in -short mode")
	}
	s := testSuite()
	var buf bytes.Buffer
	if err := s.RunAllCtx(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table II", "Table III", "ego-network", "log-normal",
		"clustering", "random-walk", "four networks", "deviation",
		"Google+", "Twitter", "LiveJournal", "Orkut",
	} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("RunAllCtx output missing %q", want)
		}
	}
}

func TestGraphProfileReciprocityUndirected(t *testing.T) {
	g, err := graph.FromEdges(false, [][2]int64{{1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := CharacterizeGraph("u", g, ProfileOptions{DistanceSources: 4, ClusteringSamples: 4}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if p.Reciprocity != 1 {
		t.Errorf("undirected reciprocity = %v, want 1", p.Reciprocity)
	}
}

// TestGraphProfileReciprocityDirected: of the arcs 1→2, 2→1 and 2→3,
// two have their reverse, so reciprocity is 2/3 of the arc count.
func TestGraphProfileReciprocityDirected(t *testing.T) {
	g, err := graph.FromEdges(true, [][2]int64{{1, 2}, {2, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := CharacterizeGraph("d", g, ProfileOptions{DistanceSources: 4, ClusteringSamples: 4}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0 / 3.0; p.Reciprocity != want {
		t.Errorf("directed reciprocity = %v, want %v", p.Reciprocity, want)
	}
}

func TestCrossNetworkExtendedFuncs(t *testing.T) {
	s := testSuite()
	datasets, err := s.AllGroupDatasets()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CrossNetwork(datasets[:2], score.ExtendedFuncs())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != len(score.ExtendedFuncs()) {
		t.Errorf("panels = %d, want %d", len(res.Panels), len(score.ExtendedFuncs()))
	}
}
