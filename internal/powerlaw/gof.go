package powerlaw

import (
	"errors"
	"fmt"
	"math/rand"
)

// GoFResult is the outcome of the semi-parametric Kolmogorov–Smirnov
// bootstrap of Clauset et al. §4: the p-value is the fraction of
// synthetic data sets (drawn from the fitted model, refitted, and
// re-measured) whose KS distance exceeds the empirical one. The
// power-law hypothesis is "plausible" when PValue > 0.1.
type GoFResult struct {
	// KS is the empirical KS distance of the fit.
	KS float64
	// PValue is the bootstrap p-value.
	PValue float64
	// Replicates is the number of bootstrap rounds performed.
	Replicates int
}

// Plausible reports whether the model survives at the conventional 0.1
// threshold.
func (r GoFResult) Plausible() bool { return r.PValue > 0.1 }

// ErrNoRNG is returned when a nil random source is supplied.
var ErrNoRNG = errors.New("powerlaw: nil RNG")

// GoodnessOfFit bootstraps the power-law fit: for each replicate, body
// points (below xmin) are resampled from the data and tail points drawn
// from the fitted model, the replicate is refitted at the same xmin, and
// its KS distance recorded. Following Clauset et al., ~1000 replicates
// give p-values accurate to about 0.01; 100 is fine for a coarse check.
func GoodnessOfFit(data []int, fit *PowerLaw, replicates int, rng *rand.Rand) (GoFResult, error) {
	if rng == nil {
		return GoFResult{}, ErrNoRNG
	}
	if replicates < 1 {
		return GoFResult{}, errors.New("powerlaw: need at least one replicate")
	}
	empiricalKS, err := ksStatistic(fit, data)
	if err != nil {
		return GoFResult{}, fmt.Errorf("empirical KS: %w", err)
	}

	// Split data around xmin.
	var body []int
	tailCount := 0
	for _, x := range data {
		if x >= fit.XminVal {
			tailCount++
		} else {
			body = append(body, x)
		}
	}
	if tailCount == 0 {
		return GoFResult{}, ErrEmptyTail
	}

	exceed := 0
	synthetic := make([]int, len(data))
	for r := 0; r < replicates; r++ {
		// Semi-parametric resample: with probability ntail/n draw from
		// the fitted model, otherwise resample a body point.
		for i := range synthetic {
			if rng.Intn(len(data)) < tailCount {
				synthetic[i] = powerLawDraw(fit.Alpha, fit.XminVal, rng)
			} else {
				synthetic[i] = body[rng.Intn(len(body))]
			}
		}
		refit, err := FitPowerLaw(synthetic, fit.XminVal)
		if err != nil {
			// A degenerate replicate (all-equal tail) carries no KS
			// evidence either way; count it as non-exceeding.
			continue
		}
		ks, err := ksStatistic(refit, synthetic)
		if err != nil {
			continue
		}
		if ks > empiricalKS {
			exceed++
		}
	}
	return GoFResult{
		KS:         empiricalKS,
		PValue:     float64(exceed) / float64(replicates),
		Replicates: replicates,
	}, nil
}
