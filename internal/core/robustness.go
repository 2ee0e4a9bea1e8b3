package core

import (
	"fmt"
	"io"
	"sort"

	"gpluscircles/internal/par"
	"gpluscircles/internal/report"
)

// RobustnessResult reports how the scorecard fares across independent
// seeds: a reproduction that only holds for one lucky seed is no
// reproduction at all.
type RobustnessResult struct {
	// Seeds lists the evaluated generator seeds.
	Seeds []int64
	// HeldPerSeed counts the claims that held for each seed.
	HeldPerSeed []int
	// TotalClaims is the scorecard size.
	TotalClaims int
	// FailuresByClaim counts, per claim ID, how many seeds failed it.
	FailuresByClaim map[string]int
}

// seedOutcome is one seed's scorecard tally before the deterministic
// merge.
type seedOutcome struct {
	held      int
	total     int
	failedIDs []string
	err       error
}

// MeasureRobustness reruns the scorecard for `seeds` consecutive seeds
// at the suite's scale, fanning the seeds out with par.For. Each seed
// builds a fresh independent Suite (the receiver's cached data sets are
// not reused), so the per-seed runs share no mutable state. Per-seed
// outcomes land in a slice indexed by seed offset and are merged in seed
// order afterwards, so the result — including FailuresByClaim contents
// and the first error selected — is byte-for-byte independent of
// GOMAXPROCS.
func MeasureRobustness(opts SuiteOptions, seeds int) (*RobustnessResult, error) {
	if seeds < 1 {
		seeds = 3
	}
	base := opts.withDefaults()

	evalSeed := func(i int) seedOutcome {
		seedOpts := base
		seedOpts.Seed = base.Seed + int64(i)
		s := NewSuite(seedOpts)
		claims, err := Scorecard(s)
		if err != nil {
			return seedOutcome{err: fmt.Errorf("seed %d: %w", seedOpts.Seed, err)}
		}
		out := seedOutcome{total: len(claims)}
		for _, c := range claims {
			if c.Holds {
				out.held++
			} else {
				out.failedIDs = append(out.failedIDs, c.ID)
			}
		}
		return out
	}

	outcomes := make([]seedOutcome, seeds)
	par.For(seeds, 0, func(_, i int) { outcomes[i] = evalSeed(i) })

	// Deterministic merge in seed order: the first failing seed's error
	// wins, exactly as the serial loop would have reported it.
	res := &RobustnessResult{FailuresByClaim: map[string]int{}}
	for i, out := range outcomes {
		if out.err != nil {
			return nil, out.err
		}
		for _, id := range out.failedIDs {
			res.FailuresByClaim[id]++
		}
		res.Seeds = append(res.Seeds, base.Seed+int64(i))
		res.HeldPerSeed = append(res.HeldPerSeed, out.held)
		res.TotalClaims = out.total
	}
	return res, nil
}

func runRobustness(s *Suite, w io.Writer) error {
	// Independent reruns at a reduced scale keep this experiment fast
	// while still exercising the full pipeline per seed.
	opts := s.Options()
	opts.Scale = opts.Scale * 0.4
	res, err := MeasureRobustness(opts, 3)
	if err != nil {
		return err
	}
	return renderRobustness(res, opts.Scale, w)
}

// renderRobustness writes the robustness table and failure notes. Split
// from runRobustness so tests can assert the rendering is byte-identical
// across worker counts.
func renderRobustness(res *RobustnessResult, scale float64, w io.Writer) error {
	tbl := report.NewTable(
		fmt.Sprintf("Scorecard robustness over %d seeds (scale %.2f)", len(res.Seeds), scale),
		"Seed", "Claims held")
	for i, seed := range res.Seeds {
		tbl.AddRow(fmt.Sprintf("%d", seed),
			fmt.Sprintf("%d / %d", res.HeldPerSeed[i], res.TotalClaims))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	if len(res.FailuresByClaim) == 0 {
		_, err := fmt.Fprintln(w, "\nEvery claim held for every seed.")
		if err != nil {
			return fmt.Errorf("robustness note: %w", err)
		}
		return nil
	}
	if _, err := fmt.Fprintln(w, "\nClaims that failed on some seed:"); err != nil {
		return fmt.Errorf("robustness note: %w", err)
	}
	// Sorted for deterministic output (RunAllParallelCtx asserts the report
	// is byte-identical to the serial run).
	ids := make([]string, 0, len(res.FailuresByClaim))
	for id := range res.FailuresByClaim {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, err := fmt.Fprintf(w, "  %s: %d seed(s)\n", id, res.FailuresByClaim[id]); err != nil {
			return fmt.Errorf("robustness note: %w", err)
		}
	}
	return nil
}
