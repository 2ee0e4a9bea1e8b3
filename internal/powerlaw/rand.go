package powerlaw

import (
	"math"
	"math/rand"
)

// SamplePowerLaw draws n integers from a discrete power law with exponent
// alpha and cutoff xmin, using the continuous-approximation inverse
// transform recommended by Clauset et al. (Appendix D):
// x = ⌊(xmin − ½)(1 − u)^(−1/(α−1)) + ½⌋.
func SamplePowerLaw(n int, alpha float64, xmin int, rng *rand.Rand) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = powerLawDraw(alpha, xmin, rng)
	}
	return out
}

// powerLawDraw is one SamplePowerLaw value; it consumes one rng.Float64.
func powerLawDraw(alpha float64, xmin int, rng *rand.Rand) int {
	u := rng.Float64()
	x := (float64(xmin) - 0.5) * math.Pow(1-u, -1/(alpha-1))
	return int(math.Floor(x + 0.5))
}

// SampleLogNormal draws n integers by rounding exp(N(mu, sigma²)) and
// re-drawing values below xmin (tail conditioning by rejection).
func SampleLogNormal(n int, mu, sigma float64, xmin int, rng *rand.Rand) []int {
	out := make([]int, n)
	for i := range out {
		for {
			x := int(math.Round(math.Exp(rng.NormFloat64()*sigma + mu)))
			if x >= xmin {
				out[i] = x
				break
			}
		}
	}
	return out
}

// SampleExponential draws n integers from the discrete exponential
// (shifted geometric) tail with rate lambda above xmin.
func SampleExponential(n int, lambda float64, xmin int, rng *rand.Rand) []int {
	out := make([]int, n)
	for i := range out {
		u := rng.Float64()
		out[i] = xmin + int(math.Floor(-math.Log(1-u)/lambda))
	}
	return out
}
