package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/nullmodel"
	"gpluscircles/internal/score"
)

func TestCohesionNullCalibration(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CohesionNullCalibration(gp, 3, 5, rand.New(rand.NewSource(1)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups == 0 {
		t.Fatal("no circles with >=3 members entered the study")
	}
	if res.MeanCohesion < 0 || res.MeanCohesion > 1 {
		t.Errorf("mean cohesion %v outside [0,1]", res.MeanCohesion)
	}
	if res.MeanAnalyticNull < 0 || res.MeanEmpiricalNull < 0 {
		t.Errorf("negative null expectation: analytic %v, empirical %v",
			res.MeanAnalyticNull, res.MeanEmpiricalNull)
	}
	// The headline claim the experiment renders: curated circles are far
	// denser in triangles than the degree-preserving null predicts.
	if res.MeanCohesion <= res.MeanEmpiricalNull {
		t.Errorf("circles (%v) not denser than the empirical null (%v)",
			res.MeanCohesion, res.MeanEmpiricalNull)
	}
}

func TestCohesionNullCalibrationValidation(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CohesionNullCalibration(gp, 2, 5, nil, nil, nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

// TestCohesionExperimentRenderDeterministic runs the registered cohesion
// experiment twice on fresh suites at the same seed and demands identical
// bytes — the determinism contract every registry experiment carries.
func TestCohesionExperimentRenderDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration render in -short mode")
	}
	e, err := ExperimentByID("cohesion")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		var buf bytes.Buffer
		if err := e.Run(testSuite(), &buf); err != nil {
			t.Fatalf("run cohesion: %v", err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("cohesion experiment output differs between identical runs")
	}
	for _, want := range []string{
		"Cohesion (triangle density)", "Null calibration", "Chung-Lu",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("output missing %q:\n%s", want, a)
		}
	}
}

// TestCohesionScoresMatchCalibration cross-checks the score.Func path
// against the calibration's direct kernel calls on the same circles.
func TestCohesionScoresMatchCalibration(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.ScoreContext(gp.Graph)
	set := graph.NewSet(gp.Graph.NumVertices())
	for _, grp := range gp.Groups[:min(10, len(gp.Groups))] {
		set.Fill(grp.Members)
		n := int64(set.Len())
		if n < 3 {
			continue
		}
		want := float64(graphalgo.SetTriangles(gp.Graph, set)) / float64(n*(n-1)*(n-2)/6)
		got := score.Cohesion().Eval(ctx, set, graph.Cut(gp.Graph, set))
		//lint:ignore floateq same integer count divided by the same triple count
		if got != want {
			t.Errorf("circle %s: score %v, kernel %v", grp.Name, got, want)
		}
		_ = nullmodel.ChungLuTriangles(gp.Graph, set) // must not panic on real circles
	}
}
