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

// zetaBernoulli holds (2j)!/B_2j for j = 1 … 12: the divisors of the
// Euler–Maclaurin corrections in hurwitzZeta.
var zetaBernoulli = [12]float64{
	12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
	-1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
	1.1646782814350067249e14, -4.5979787224074726105e15,
	1.8152105401943546773e17, -7.1661652561756670113e18,
}

// zetaAsymptotic is the q from which hurwitzZeta returns the asymptotic
// expansion q^(1−s)/(s−1) + q^(−s)/2. Its first omitted term, about
// s(s−1)/(12q²) of it, is then below 2^−100 for s ≤ 6 and below 2^−53
// for s < 2^25; and the direct sum's w++ would stop moving w at 2^53.
const zetaAsymptotic = 1 << 52

// hurwitzZeta computes ζ(s, q) = Σ_{k≥0} (q+k)^(−s) for s > 1, q > 0 by
// Euler–Maclaurin summation, as in Cephes' zeta: ten terms directly, up
// to w = q+9 with b = w^(−s); the tail's integral and half term
// b·w/(s−1) − b/2; then up to twelve Bernoulli corrections, stopping
// once one falls below 2^−53 of the sum. (Cephes also stops the direct
// terms early, which is wrong near s = 1, where the tail dwarfs b.) It
// is within 4 ulp of ζ correctly rounded at s ∈ {2, 3, 4}, q ∈ [1, 1000]
// (TestHurwitzZetaAccuracy). From q = 2^52 it is the asymptotic
// expansion; outside the domain (s ≤ 1, q ≤ 0, NaN, ±Inf) it is NaN.
func hurwitzZeta(s, q float64) float64 {
	if !(s > 1 && q > 0) || math.IsInf(s, 0) || math.IsInf(q, 0) {
		return math.NaN()
	}
	if q >= zetaAsymptotic {
		return math.Pow(q, 1-s)/(s-1) + 0.5*math.Pow(q, -s)
	}
	w := q
	b := math.Pow(w, -s)
	sum := b
	for i := 0; i < 9; i++ {
		w++
		b = math.Pow(w, -s)
		sum += b
	}
	sum += b * w / (s - 1)
	sum -= 0.5 * b
	rising, k := 1.0, 0.0 // rising is s(s+1)…(s+k−1)
	for _, div := range zetaBernoulli {
		rising *= s + k
		b /= w
		t := rising * b / div
		sum += t
		if math.Abs(t/sum) < 0x1p-53 {
			break
		}
		k++
		rising *= s + k
		b /= w
		k++
	}
	return sum
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
// of their magnitude, and adjacent values share their one CDF value.
func ksSorted(d Dist, sorted []int) float64 {
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
			fBelow = d.CDF(x - 1)
		}
		fx := d.CDF(x)
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
