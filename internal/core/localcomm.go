package core

import (
	"fmt"
	"io"
	"math/rand"

	"gpluscircles/internal/detect"
	"gpluscircles/internal/report"
	"gpluscircles/internal/score"
	"gpluscircles/internal/stats"
	"gpluscircles/internal/synth"
)

// LocalCommunityResult contrasts curated circles against the *best
// available* communities around the same users: for a sample of circles,
// a greedy conductance sweep is seeded at a random member, and the
// optimal local set's conductance is compared with the circle's. The gap
// measures how far circle curation strays from graph-optimal community
// structure — the sharpest form of the paper's headline finding.
type LocalCommunityResult struct {
	// SampledCircles is the number of circle/sweep pairs evaluated.
	SampledCircles int
	// CircleConductance and SweepConductance are the paired score lists.
	CircleConductance []float64
	SweepConductance  []float64
	// MeanGap is mean(circle − sweep); positive means circles are more
	// open than the best local communities around their own members.
	MeanGap float64
}

// CompareLocalCommunities runs the sweep-vs-circle comparison over at
// most maxCircles circles.
func CompareLocalCommunities(ds *synth.Dataset, maxCircles int, rng *rand.Rand) (*LocalCommunityResult, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	if len(ds.Groups) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoGroups, ds.Name)
	}
	if maxCircles <= 0 {
		maxCircles = 50
	}
	ctx := score.NewContext(ds.Graph)
	cond := []score.Func{score.Conductance()}

	perm := rng.Perm(len(ds.Groups))
	if len(perm) > maxCircles {
		perm = perm[:maxCircles]
	}
	res := &LocalCommunityResult{}
	for _, gi := range perm {
		grp := ds.Groups[gi]
		seed := grp.Members[rng.Intn(len(grp.Members))]
		maxSize := 2 * len(grp.Members)
		if maxSize < 10 {
			maxSize = 10
		}
		_, sweepCond, err := detect.ConductanceSweep(ds.Graph, seed, maxSize)
		if err != nil {
			return nil, fmt.Errorf("sweep from %d: %w", seed, err)
		}
		circleCond := score.Evaluate(ctx, grp.Members, cond)["conductance"]
		res.CircleConductance = append(res.CircleConductance, circleCond)
		res.SweepConductance = append(res.SweepConductance, sweepCond)
		res.MeanGap += circleCond - sweepCond
		res.SampledCircles++
	}
	if res.SampledCircles == 0 {
		return nil, fmt.Errorf("local-community comparison: no evaluable circles in %s", ds.Name)
	}
	res.MeanGap /= float64(res.SampledCircles)
	return res, nil
}

func runLocalComm(s *Suite, w io.Writer) error {
	gp, err := s.GPlus()
	if err != nil {
		return err
	}
	res, err := CompareLocalCommunities(gp, 60, s.RNG(21))
	if err != nil {
		return err
	}
	circleMean := stats.Mean(res.CircleConductance)
	sweepMean := stats.Mean(res.SweepConductance)
	tbl := report.NewTable(
		"Curated circles vs. optimal local communities around the same members",
		"Set", "Mean conductance")
	tbl.AddRow("curated circles", report.Fmt(circleMean))
	tbl.AddRow("conductance-sweep sets", report.Fmt(sweepMean))
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"\nSampled %d circles; mean conductance gap %.3f.\n"+
			"Even the best-conductance set around a circle member is far more closed\n"+
			"than the curated circle — curation optimizes facets, not separation,\n"+
			"which is the paper's core distinction between circles and communities.\n",
		res.SampledCircles, res.MeanGap)
	if err != nil {
		return fmt.Errorf("localcomm note: %w", err)
	}
	return nil
}
