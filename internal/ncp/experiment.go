package ncp

import (
	"fmt"
	"io"

	"gpluscircles/internal/core"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/report"
	"gpluscircles/internal/synth"
)

// ExperimentOptions carries the circlebench knobs into the registry
// experiment.
type ExperimentOptions struct {
	// Seeds is the PPR seed count per sweep (default 32).
	Seeds int
	// Eps is the PPR residual tolerance (default 1e-4).
	Eps float64
}

// Experiment returns the "ncp" registry experiment: NCP curves for the
// Google+ circles data set and the LiveJournal communities data set,
// with the curated groups overlaid as points — a Fig. 6-style reading
// against the best conductance the graph admits at each size. circlebench
// lists it after the core registry and runs it when selected with the
// ncp-sweep gate open; the core registry cannot import this package,
// which is built on core.
func Experiment(opts ExperimentOptions) core.Experiment {
	return core.Experiment{
		ID:    "ncp",
		Title: "Extension: network community profile vs. curated groups (PPR sweep)",
		Run: func(s *core.Suite, w io.Writer) error {
			return runNCP(s, w, opts)
		},
	}
}

// groupConductance scores one group with the sweep kernel's Eq. 3, so
// curve and overlay points are directly comparable.
func groupConductance(g *graph.Graph, members []graph.VID) float64 {
	st := graph.Cut(g, graph.SetOf(g, members))
	return graphalgo.SweepConductance(st.Internal, st.Boundary)
}

func runNCP(s *core.Suite, w io.Writer, opts ExperimentOptions) error {
	gp, err := s.GPlus()
	if err != nil {
		return err
	}
	lj, err := s.LiveJournal()
	if err != nil {
		return err
	}

	sweepOpts := Options{Seeds: opts.Seeds, Eps: opts.Eps}
	for _, ds := range []*synth.Dataset{gp, lj} {
		curve, err := Sweep(ds.Graph, sweepOpts)
		if err != nil {
			return fmt.Errorf("ncp sweep %s: %w", ds.Name, err)
		}
		if err := curve.WriteTable(w, fmt.Sprintf(
			"Network community profile — %s (%d PPR seeds, eps %s)",
			ds.Name, curve.Seeds, report.Fmt(curve.Eps))); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := renderGroupsVsCurve(w, ds, curve); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	// Null calibration: the same sweep on degree-preserving rewirings of
	// the Google+ graph. A rewired graph has no community structure, so
	// its profile stays near 1 at every size; the gap between the two
	// curves is the structure the sweep actually found.
	nullCurve, err := NullCurve(gp.Graph, 2, 1, s.NullArena(gp.Graph), sweepOpts)
	if err != nil {
		return fmt.Errorf("null ncp sweep %s: %w", gp.Name, err)
	}
	if err := nullCurve.WriteTable(w, fmt.Sprintf(
		"Null profile — %s, pointwise minimum over 2 rewired samples", gp.Name)); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nReading: the NCP curve is the best conductance any swept set of each\n"+
		"size achieves on the graph itself. The dense ego-joined Google+ graph\n"+
		"has a shallow profile — even its optimal sets stay open — so circles\n"+
		"sit close to a poor optimum: their openness is a property of the\n"+
		"graph, not sloppy curation. The %s graph dips far deeper,\n"+
		"and its curated communities sit well above that optimum in absolute\n"+
		"conductance while living in a graph that genuinely supports\n"+
		"separation. The rewired null stays near 1 throughout, confirming the\n"+
		"dips in the observed curves are community structure, not sweep\n"+
		"artifacts.\n", lj.Name)
	return nil
}

// renderGroupsVsCurve overlays a data set's curated groups on its NCP
// curve: a summary table of the mean group conductance against the mean
// best-at-size from the curve, and a log-size scatter plot of both.
func renderGroupsVsCurve(w io.Writer, ds *synth.Dataset, curve *Curve) error {
	var (
		nGroups   int
		meanGroup float64
		meanBest  float64
		curveX    []float64
		curveY    []float64
		groupX    []float64
		groupY    []float64
	)
	for _, grp := range ds.Groups {
		if len(grp.Members) == 0 {
			continue
		}
		gc := groupConductance(ds.Graph, grp.Members)
		best, _ := curve.BestAtMost(len(grp.Members))
		nGroups++
		meanGroup += gc
		meanBest += best
		groupX = append(groupX, float64(len(grp.Members)))
		groupY = append(groupY, gc)
	}
	if nGroups == 0 {
		return fmt.Errorf("ncp: no non-empty groups in %s", ds.Name)
	}
	meanGroup /= float64(nGroups)
	meanBest /= float64(nGroups)

	tbl := report.NewTable(fmt.Sprintf("%s groups vs. their graph's NCP", ds.Name),
		"Groups", "Mean group conductance", "Mean NCP best at size", "Mean gap")
	tbl.AddRow(report.FmtInt(int64(nGroups)), report.Fmt(meanGroup),
		report.Fmt(meanBest), report.Fmt(meanGroup-meanBest))
	if err := tbl.Render(w); err != nil {
		return err
	}

	for _, p := range curve.Points {
		curveX = append(curveX, float64(p.Size))
		curveY = append(curveY, p.Conductance)
	}
	fmt.Fprintln(w)
	return report.AsciiPlot(w, report.PlotConfig{
		Title:  fmt.Sprintf("%s: NCP curve (*) with curated groups (o)", ds.Name),
		LogX:   true,
		XLabel: "community size",
		YLabel: "conductance",
	}, []report.Series{
		{Name: "ncp", X: curveX, Y: curveY},
		{Name: "groups", X: groupX, Y: groupY},
	})
}
