// Package powerlaw implements the Clauset–Shalizi–Newman methodology for
// fitting heavy-tailed distributions to discrete empirical data (Section
// IV-A1, Fig. 3): maximum-likelihood fits of discrete power-law,
// log-normal and exponential models above a cutoff xmin, xmin selection by
// Kolmogorov–Smirnov minimization, and Vuong log-likelihood-ratio tests to
// decide which model fits best. The paper stresses that "determining a
// power-law distribution by simply comparing plots is insufficient"; this
// package is the quantitative alternative.
package powerlaw

import (
	"errors"
	"math"
	"sort"
)

var (
	// ErrEmptyTail is returned when no data points lie at or above xmin.
	ErrEmptyTail = errors.New("powerlaw: no data at or above xmin")
	// ErrDegenerate is returned when the tail data cannot identify the
	// model parameters (e.g. all values equal).
	ErrDegenerate = errors.New("powerlaw: degenerate tail data")
)

// Dist is a discrete distribution supported on integers >= Xmin,
// conditioned on the tail, as fitted by this package.
type Dist interface {
	// Name identifies the model family ("power-law", "log-normal",
	// "exponential").
	Name() string
	// Xmin is the tail cutoff the model is conditioned on.
	Xmin() int
	// LogProb returns ln P(X = x) for x >= Xmin; -Inf below the cutoff.
	LogProb(x int) float64
	// CDF returns P(X <= x | X >= Xmin).
	CDF(x int) float64
	// Params returns the fitted parameters keyed by conventional names
	// (alpha; mu, sigma; lambda).
	Params() map[string]float64
}

// tail extracts the data points >= xmin.
func tail(data []int, xmin int) []int {
	out := make([]int, 0, len(data))
	for _, x := range data {
		if x >= xmin {
			out = append(out, x)
		}
	}
	return out
}

// stdNormCDF is Φ, the standard normal CDF.
func stdNormCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// zetaTerms is the number of directly summed terms in hurwitzZeta.
const zetaTerms = 1000

// hurwitzZeta computes ζ(s, q) = Σ_{k≥0} (q+k)^(−s) for s > 1, q > 0 via
// direct summation with an Euler–Maclaurin tail correction.
func hurwitzZeta(s, q float64) float64 {
	var sum float64
	for k := 0; k < zetaTerms; k++ {
		sum += math.Pow(q+float64(k), -s)
	}
	return zetaTail(sum, s, q+zetaTerms)
}

// zetaTail adds the Euler–Maclaurin tail at N = q + zetaTerms,
// ∫ + f(N)/2 − f'(N)/12, to the partial sum of hurwitzZeta.
func zetaTail(sum, s, n float64) float64 {
	return sum + (math.Pow(n, 1-s)/(s-1) + 0.5*math.Pow(n, -s) + s*math.Pow(n, -s-1)/12)
}

// zetaScan evaluates ζ(s, m) at integer m, bit-identical to
// hurwitzZeta(s, float64(m)): the same zetaTerms powers summed in the
// same order, plus the same tail. The powers live in a sliding window
// over the integers, so a run of nondecreasing m computes each power
// once — at most zetaTerms·(k+1) math.Pow calls for k distinct values,
// in a fixed 2·zetaTerms-entry buffer.
type zetaScan struct {
	s      float64
	buf    []float64 // buf[lo:hi] holds (base+i)^(−s), i < hi−lo
	lo, hi int
	base   int
}

// zetaScanLimit bounds |m| for the window: below it every m+k is exact
// in float64, so (base+i)^(−s) is the term hurwitzZeta computes. Larger
// magnitudes take hurwitzZeta itself.
const zetaScanLimit = 1 << 52

func (z *zetaScan) at(m int) float64 {
	if m <= -zetaScanLimit || m >= zetaScanLimit {
		return hurwitzZeta(z.s, float64(m))
	}
	if d := m - z.base; d < 0 || d >= z.hi-z.lo {
		z.lo, z.hi = 0, 0
	} else {
		z.lo += d
	}
	z.base = m
	if z.buf == nil {
		z.buf = make([]float64, 2*zetaTerms)
	}
	if z.lo+zetaTerms > len(z.buf) {
		z.hi = copy(z.buf, z.buf[z.lo:z.hi])
		z.lo = 0
	}
	for ; z.hi-z.lo < zetaTerms; z.hi++ {
		z.buf[z.hi] = math.Pow(float64(m+z.hi-z.lo), -z.s)
	}
	var sum float64
	for _, p := range z.buf[z.lo:z.hi] {
		sum += p
	}
	return zetaTail(sum, z.s, float64(m)+zetaTerms)
}

// goldenSection maximizes f on [lo, hi] to the given tolerance.
func goldenSection(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc > fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// ksStatistic computes the KS distance between the empirical tail CDF of
// the data (>= d.Xmin()) and the model CDF.
func ksStatistic(d Dist, data []int) (float64, error) {
	sorted := tail(data, d.Xmin())
	if len(sorted) == 0 {
		return 0, ErrEmptyTail
	}
	sort.Ints(sorted)
	return ksSorted(d, sorted), nil
}

// ksSorted is ksStatistic over the ascending tail itself. Only the
// distinct data values are visited (the supremum over a discrete CDF is
// attained at data points, checked from both sides), so the cost is
// O(k) model CDF evaluations in the number of distinct values regardless
// of their magnitude, and adjacent values share their one CDF value. A
// power law's CDF takes its ζ values from a zetaScan, since the scan
// visits ascending x.
func ksSorted(d Dist, sorted []int) float64 {
	cdf := d.CDF
	if p, ok := d.(*PowerLaw); ok {
		cdf = p.scanCDF()
	}
	n := float64(len(sorted))

	var ks, fPrev float64
	cum := 0
	for i := 0; i < len(sorted); {
		x := sorted[i]
		j := i
		for j < len(sorted) && sorted[j] == x {
			j++
		}
		before := float64(cum) / n
		cum = j
		after := float64(cum) / n
		fBelow := fPrev
		if i == 0 || sorted[i-1] != x-1 {
			fBelow = cdf(x - 1)
		}
		fx := cdf(x)
		fPrev = fx
		// Above the step: |emp_after - F(x)|; below it: |emp_before -
		// F(x-1)|.
		if diff := math.Abs(after - fx); diff > ks {
			ks = diff
		}
		if diff := math.Abs(before - fBelow); diff > ks {
			ks = diff
		}
		i = j
	}
	return ks
}
