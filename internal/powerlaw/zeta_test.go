package powerlaw

import (
	"math"
	"math/big"
	"testing"
)

// The ζ oracle: for integer s ≥ 2 and integer q ≥ 1, ζ(s, q) is the
// rational direct sum Σ_{q≤k<N} k^(−s) plus the Euler–Maclaurin tail at
// N with exact Bernoulli numbers,
//
//	N^(1−s)/(s−1) + N^(−s)/2 + Σ_{j=1..J} B_2j/(2j)! · s(s+1)…(s+2j−2) · N^(−s−2j+1),
//
// every term an exact rational. The tail's error is below its first
// omitted term, which zetaTail checks is under 2^−80 of the tail (the
// smallest result); big.Rat.Float64 then rounds correctly, so each
// oracle value is ζ(s, q) correctly rounded to float64.
const zetaOracleJ = 10

// bernoulli returns the Bernoulli numbers B_0 … B_n exactly, by the
// Akiyama–Tanigawa algorithm (B_1 = +1/2; only the even ones are used).
func bernoulli(n int) []*big.Rat {
	a := make([]*big.Rat, n+1)
	b := make([]*big.Rat, n+1)
	for m := 0; m <= n; m++ {
		a[m] = big.NewRat(1, int64(m+1))
		for j := m; j >= 1; j-- {
			d := new(big.Rat).Sub(a[j-1], a[j])
			a[j-1] = d.Mul(d, big.NewRat(int64(j), 1))
		}
		b[m] = new(big.Rat).Set(a[0])
	}
	return b
}

// powRat returns n^(−e) for integers n ≥ 1, e ≥ 0.
func powRat(n, e int64) *big.Rat {
	d := new(big.Int).Exp(big.NewInt(n), big.NewInt(e), nil)
	return new(big.Rat).SetFrac(big.NewInt(1), d)
}

// zetaTail returns Σ_{k≥n} k^(−s) for integers s ≥ 2, n ≥ 1 as the exact
// rational Euler–Maclaurin sum
//
//	n^(1−s)/(s−1) + n^(−s)/2 + Σ_{j=1..J} B_2j/(2j)! · s(s+1)…(s+2j−2) · n^(−s−2j+1),
//
// failing t unless its first omitted term is below 2^−80 of it.
func zetaTail(t testing.TB, s, n int64) *big.Rat {
	t.Helper()
	bern := bernoulli(2*zetaOracleJ + 2)
	term := func(j int64) *big.Rat {
		c := new(big.Rat).Set(bern[2*j])
		for i := int64(1); i <= 2*j; i++ {
			c.Quo(c, big.NewRat(i, 1))
		}
		for i := int64(0); i <= 2*j-2; i++ {
			c.Mul(c, big.NewRat(s+i, 1))
		}
		return c.Mul(c, powRat(n, s+2*j-1))
	}
	sum := new(big.Rat).Mul(powRat(n, s-1), big.NewRat(1, s-1))
	sum.Add(sum, new(big.Rat).Mul(powRat(n, s), big.NewRat(1, 2)))
	for j := int64(1); j <= zetaOracleJ; j++ {
		sum.Add(sum, term(j))
	}
	omitted := new(big.Rat).Abs(term(zetaOracleJ + 1))
	if omitted.Mul(omitted, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 80))).Cmp(sum) >= 0 {
		t.Fatalf("oracle tail for s=%d at n=%d is not converged", s, n)
	}
	return sum
}

// zetaOracle returns ζ(s, q) correctly rounded for q = 1 … qmax (index
// q−1), for integer s ≥ 2. The tail sits at N = qmax + 50; the direct
// sums share their terms, accumulated from k = N−1 down to q.
func zetaOracle(t testing.TB, s, qmax int64) []float64 {
	t.Helper()
	n := qmax + 50
	sum := zetaTail(t, s, n)
	out := make([]float64, qmax)
	for k := n - 1; k >= 1; k-- {
		sum.Add(sum, powRat(k, s))
		if k <= qmax {
			out[k-1], _ = sum.Float64()
		}
	}
	return out
}

// ulpDist is the number of float64 steps between two positive finite
// values.
func ulpDist(a, b float64) int64 {
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	if d < 0 {
		d = -d
	}
	return d
}

// zetaMaxULP is the accuracy bound of hurwitzZeta against the oracle.
const zetaMaxULP = 4

// TestHurwitzZetaAccuracy holds hurwitzZeta to within zetaMaxULP of
// ζ(s, q) correctly rounded, for s ∈ {2, 3, 4} and every integer
// q ∈ [1, 1000].
func TestHurwitzZetaAccuracy(t *testing.T) {
	for _, s := range []int64{2, 3, 4} {
		var worst int64
		worstQ := 0
		for i, want := range zetaOracle(t, s, 1000) {
			if d := ulpDist(hurwitzZeta(float64(s), float64(i+1)), want); d > worst {
				worst, worstQ = d, i+1
			}
		}
		if worst > zetaMaxULP {
			t.Errorf("s=%d: %d ulp from the oracle at q=%d, bound %d", s, worst, worstQ, zetaMaxULP)
		}
		t.Logf("s=%d: at most %d ulp (q=%d)", s, worst, worstQ)
	}
}

// zetaRecurrenceTol bounds |ζ(s,q) − ζ(s,q+1) − q^(−s)| relative to
// ζ(s, q) for s ∈ (1, 6] and q < 2^52. It is looser than two values of
// zetaMaxULP each because math.Pow computes x^y as Exp(y·Log x) times
// an integer power, whose error grows with |ln q|: up to ~10 ulp near
// q = 2^52. The worst residual seen over 12M random (s, q) was 4.9e-15,
// and 1.5e-15 for q ≤ 1000.
const zetaRecurrenceTol = 8e-15

// checkZetaRecurrence reports whether ζ(s,q) − ζ(s,q+1) = q^(−s) holds
// to zetaRecurrenceTol, with the residual.
func checkZetaRecurrence(s, q float64) (bool, float64) {
	z := hurwitzZeta(s, q)
	r := math.Abs(z-hurwitzZeta(s, q+1)-math.Pow(q, -s)) / z
	return r <= zetaRecurrenceTol, r
}

// TestHurwitzZetaShiftIdentity checks ζ(s, q) = q^(−s) + ζ(s, q+1),
// mostly at non-integer s, where the oracle does not reach; including s
// just above 1, tiny q and the step from the summed to the asymptotic
// branch at q = 2^52.
func TestHurwitzZetaShiftIdentity(t *testing.T) {
	for _, s := range []float64{math.Nextafter(1, 2), 1 + 1e-9, 1.01, 1.2345, 1.5, 2.2, 2.5, math.Pi, 4.75, 5.999, 6} {
		for _, q := range []float64{0x1p-100, 1e-15, 0.5, 1, 1.5, 2, 3, 8.5, 9, 9.5, 10, 37.25, 1000, 12345.678, 1e6, 1e9, 0x1p52 - 2, 0x1p52 - 1} {
			if ok, r := checkZetaRecurrence(s, q); !ok {
				t.Errorf("s=%v q=%v: recurrence residual %.3g of ζ, tolerance %g", s, q, r, zetaRecurrenceTol)
			}
		}
	}
}

// TestHurwitzZetaDomain pins the guarded results: NaN for s ≤ 1, q ≤ 0
// (including q = −2^63, where a += 1 no longer moves a) and non-finite
// input, and the asymptotic expansion from q = 2^52 on, within
// zetaMaxULP of ζ correctly rounded.
func TestHurwitzZetaDomain(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][2]float64{
		{2, 0}, {2, math.Copysign(0, -1)}, {2, -1}, {2, -2.5}, {2, -0x1p52}, {2, -0x1p63}, {2, -math.MaxFloat64},
		{2, nan}, {2, inf}, {2, -inf},
		{1, 2}, {0.5, 2}, {-3, 2}, {0, 1}, {nan, 2}, {inf, 2}, {-inf, 2}, {nan, nan}, {inf, inf},
	} {
		if z := hurwitzZeta(c[0], c[1]); !math.IsNaN(z) {
			t.Errorf("hurwitzZeta(%v, %v) = %v, want NaN", c[0], c[1], z)
		}
	}
	for _, s := range []int64{2, 3, 4} {
		for _, shift := range []uint{52, 53, 60} {
			n := int64(1) << shift
			want, _ := zetaTail(t, s, n).Float64()
			if got := hurwitzZeta(float64(s), float64(n)); ulpDist(got, want) > zetaMaxULP {
				t.Errorf("hurwitzZeta(%d, 2^%d) = %v, want %v", s, shift, got, want)
			}
		}
	}
}

// FuzzHurwitzZeta drives arbitrary (s, q) through hurwitzZeta. Every
// call must return; outside the domain (s ≤ 1, q ≤ 0, NaN, ±Inf) the
// result is NaN. Over the fitting range s ∈ (1, 6] with q ∈ [2^−100,
// 2^52) — where ζ is neither infinite nor subnormal — it must be finite
// and positive, satisfy the shift recurrence to zetaRecurrenceTol, and
// not rise with q.
func FuzzHurwitzZeta(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][2]float64{
		{2, 1}, {1.01, 1}, {6, 1e9}, {2.5, 3}, {3.3, 8.75},
		{math.Nextafter(1, 2), 1}, {1 + 1e-12, 1e-15}, {math.Nextafter(1, 2), 0x1p52 - 1},
		{2, 0}, {2, -1}, {2, -0x1p63}, {1.5, 0x1p52}, {1.5, 0x1p63}, {2, math.MaxFloat64},
		{nan, 1}, {2, nan}, {inf, 1}, {-inf, 1}, {2, inf}, {2, -inf}, {1, 1}, {6, 0x1p-100}, {60, 0.5},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, s, q float64) {
		z := hurwitzZeta(s, q)
		if !(s > 1 && q > 0) || math.IsInf(s, 0) || math.IsInf(q, 0) {
			if !math.IsNaN(z) {
				t.Fatalf("hurwitzZeta(%v, %v) = %v outside the domain, want NaN", s, q, z)
			}
			return
		}
		if s > 6 || q < 0x1p-100 || q >= zetaAsymptotic {
			return
		}
		if math.IsNaN(z) || math.IsInf(z, 0) || z <= 0 {
			t.Fatalf("hurwitzZeta(%v, %v) = %v, want finite and positive", s, q, z)
		}
		if ok, r := checkZetaRecurrence(s, q); !ok {
			t.Fatalf("hurwitzZeta(%v, %v): recurrence residual %.3g of ζ, tolerance %g", s, q, r, zetaRecurrenceTol)
		}
		for _, q2 := range []float64{q + 1, 2 * q} {
			if z2 := hurwitzZeta(s, q2); !(z2 <= z*(1+zetaRecurrenceTol)) {
				t.Fatalf("hurwitzZeta(%v, %v) = %v rises to %v at q=%v", s, q, z, z2, q2)
			}
		}
	})
}
