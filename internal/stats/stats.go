// Package stats provides the empirical-statistics utilities shared by the
// evaluation pipeline: summary statistics, empirical CDFs, quantiles and
// two-sample Kolmogorov–Smirnov distance. All functions are deterministic
// and allocation-conscious.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptySample is returned by functions that need at least one value.
var ErrEmptySample = errors.New("stats: empty sample")

// ApproxEqual reports whether a and b agree within tol, absolutely for
// small magnitudes and relatively for large ones. It is the approved way
// to compare floating-point results: score kernels accumulate rounding
// differently depending on evaluation order, so exact == / != (flagged
// by circlelint's floateq check everywhere but here) silently turns into
// order-dependent behavior.
func ApproxEqual(a, b, tol float64) bool {
	if a == b {
		// Exact fast path; also handles equal infinities, which the
		// relative test below would turn into Inf-Inf = NaN.
		return true
	}
	diff := math.Abs(a - b)
	if math.IsInf(diff, 0) {
		// Opposite infinities, or one infinite operand: never close
		// (equal infinities already matched above).
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale > 1 {
		return diff <= tol*scale
	}
	return diff <= tol
}

// Summary holds the moments and quantiles of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1) sample variance; 0 for n < 2
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
	P25      float64
	P75      float64
	P90      float64
	P99      float64
}

// Summarize computes a Summary of the sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmptySample
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))

	var ss float64
	for _, x := range sorted {
		d := x - mean
		ss += d * d
	}
	variance := 0.0
	if len(sorted) > 1 {
		variance = ss / float64(len(sorted)-1)
	}

	return Summary{
		N:        len(sorted),
		Mean:     mean,
		Variance: variance,
		StdDev:   math.Sqrt(variance),
		Min:      sorted[0],
		Max:      sorted[len(sorted)-1],
		Median:   quantileSorted(sorted, 0.5),
		P25:      quantileSorted(sorted, 0.25),
		P75:      quantileSorted(sorted, 0.75),
		P90:      quantileSorted(sorted, 0.90),
		P99:      quantileSorted(sorted, 0.99),
	}, nil
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantileSorted returns the q-quantile (0 <= q <= 1) of an ascending,
// non-empty sample using linear interpolation between order statistics.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function: at X[i], the
// fraction Y[i] of the sample is <= X[i]. X is strictly increasing and Y
// non-decreasing, ending at 1.
type CDF struct {
	X []float64
	Y []float64
}

// NewCDF builds the empirical CDF of the sample with one step per
// distinct value.
func NewCDF(xs []float64) (CDF, error) {
	if len(xs) == 0 {
		return CDF{}, ErrEmptySample
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := float64(len(sorted))

	var c CDF
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values to a single step.
		//lint:ignore floateq CDF steps collapse runs of exactly equal sample values
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		c.X = append(c.X, sorted[i])
		c.Y = append(c.Y, float64(i+1)/n)
	}
	return c, nil
}

// At evaluates the CDF at x: the fraction of the sample <= x.
func (c CDF) At(x float64) float64 {
	i := sort.SearchFloat64s(c.X, x)
	// SearchFloat64s returns the first index with X[i] >= x.
	//lint:ignore floateq empirical CDF lookup is exact by construction: X holds the sample values themselves
	if i < len(c.X) && c.X[i] == x {
		return c.Y[i]
	}
	if i == 0 {
		return 0
	}
	return c.Y[i-1]
}

// FractionAbove returns the sample fraction strictly greater than x.
func (c CDF) FractionAbove(x float64) float64 { return 1 - c.At(x) }

// Len returns the number of CDF steps (distinct sample values).
func (c CDF) Len() int { return len(c.X) }

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic
// sup_x |F1(x) - F2(x)| between two empirical CDFs.
func KSDistance(a, b CDF) float64 {
	var d float64
	for _, x := range a.X {
		if v := math.Abs(a.At(x) - b.At(x)); v > d {
			d = v
		}
	}
	for _, x := range b.X {
		if v := math.Abs(a.At(x) - b.At(x)); v > d {
			d = v
		}
	}
	return d
}

// CountsToFloats converts an integer sample (e.g. a degree sequence) to
// float64 for the CDF/fit helpers.
func CountsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Gini returns the Gini coefficient of a non-negative sample: 0 for a
// perfectly equal distribution, approaching 1 when a single element
// holds everything. Commonly used to summarize degree inequality in
// social graphs.
func Gini(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return 0, errors.New("stats: Gini requires non-negative values")
	}
	n := float64(len(sorted))
	var cumWeighted, total float64
	for i, x := range sorted {
		cumWeighted += float64(i+1) * x
		total += x
	}
	//lint:ignore floateq a sum of non-negative values is exactly zero only when every value is; guards 0/0
	if total == 0 {
		return 0, nil
	}
	return (2*cumWeighted - (n+1)*total) / (n * total), nil
}
