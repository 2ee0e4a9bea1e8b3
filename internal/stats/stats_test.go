package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Variance-2.5) > 1e-12 {
		t.Errorf("Variance = %v, want 2.5", s.Variance)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("err = %v, want ErrEmptySample", err)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Variance != 0 || s.StdDev != 0 || s.Median != 7 {
		t.Errorf("summary = %+v", s)
	}
}

func TestMeanHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := quantileSorted(sorted, 0.5); q != 5 {
		t.Errorf("median of {0,10} = %v, want 5", q)
	}
	if q := quantileSorted(sorted, 0); q != 0 {
		t.Errorf("q0 = %v, want 0", q)
	}
	if q := quantileSorted(sorted, 1); q != 10 {
		t.Errorf("q1 = %v, want 10", q)
	}
}

func TestCDFKnown(t *testing.T) {
	c, err := NewCDF([]float64{1, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct steps", c.Len())
	}
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.5}, {1.5, 0.5}, {2, 0.75}, {3, 0.75}, {4, 1}, {5, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := c.FractionAbove(2); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("FractionAbove(2) = %v, want 0.25", got)
	}
}

func TestKSDistanceIdentical(t *testing.T) {
	c, _ := NewCDF([]float64{1, 2, 3})
	if d := KSDistance(c, c); d != 0 {
		t.Errorf("KS(self) = %v, want 0", d)
	}
}

func TestKSDistanceDisjoint(t *testing.T) {
	a, _ := NewCDF([]float64{1, 2})
	b, _ := NewCDF([]float64{10, 20})
	if d := KSDistance(a, b); d != 1 {
		t.Errorf("KS(disjoint) = %v, want 1", d)
	}
}

func TestGiniKnown(t *testing.T) {
	// Equal distribution -> 0.
	g, err := Gini([]float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g) > 1e-12 {
		t.Errorf("Gini(equal) = %v, want 0", g)
	}
	// One holder of everything among n: (n-1)/n.
	g, _ = Gini([]float64{0, 0, 0, 10})
	if math.Abs(g-0.75) > 1e-12 {
		t.Errorf("Gini(concentrated) = %v, want 0.75", g)
	}
	// All zeros defined as 0.
	g, _ = Gini([]float64{0, 0})
	if g != 0 {
		t.Errorf("Gini(zeros) = %v, want 0", g)
	}
}

func TestGiniValidation(t *testing.T) {
	if _, err := Gini(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("err = %v, want ErrEmptySample", err)
	}
	if _, err := Gini([]float64{-1, 2}); err == nil {
		t.Error("negative values accepted")
	}
}

// Property: Gini lies in [0, 1) and is scale-invariant.
func TestQuickGini(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 2+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		g1, err := Gini(xs)
		if err != nil || g1 < -1e-9 || g1 >= 1 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 7
		}
		g2, err := Gini(scaled)
		return err == nil && math.Abs(g1-g2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CDF is monotone non-decreasing and ends at 1.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		if math.Abs(c.Y[len(c.Y)-1]-1) > 1e-12 {
			return false
		}
		return sort.Float64sAreSorted(c.X) && sort.Float64sAreSorted(c.Y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: KS distance is symmetric and within [0,1].
func TestQuickKSSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() CDF {
			xs := make([]float64, 1+rng.Intn(50))
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
			c, _ := NewCDF(xs)
			return c
		}
		a, b := mk(), mk()
		d1, d2 := KSDistance(a, b), KSDistance(b, a)
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q and bracketed by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		sort.Float64s(xs)
		prev := xs[0]
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := quantileSorted(xs, q)
			if v < prev || v > xs[len(xs)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxEqual(t *testing.T) {
	// Sum at runtime: a constant 0.1+0.2 would fold to exactly 0.3.
	tenth, fifth := 0.1, 0.2
	sum := tenth + fifth
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},                         // exact fast path
		{sum, 0.3, 1e-12, true},                 // classic rounding residue
		{sum, 0.3, 0, false},                    // exact comparison fails
		{1e18, 1e18 + 1e3, 1e-12, true},         // relative at large scale
		{1e18, 2e18, 1e-12, false},              // genuinely different
		{0, 1e-13, 1e-12, true},                 // absolute near zero
		{0, 1e-3, 1e-12, false},                 // too far at small scale
		{math.Inf(1), math.Inf(1), 1e-9, true},  // equal infinities
		{math.Inf(1), math.Inf(-1), 1e9, false}, // opposite infinities
		{math.NaN(), math.NaN(), 1e9, false},    // NaN never equals
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
