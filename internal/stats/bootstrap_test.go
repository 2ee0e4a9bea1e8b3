package stats

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanCIBracketsTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.NormFloat64()*2 + 10
	}
	ci, err := MeanCI(xs, 300, 0.95, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo > ci.Point || ci.Point > ci.Hi {
		t.Errorf("point %v outside interval [%v, %v]", ci.Point, ci.Lo, ci.Hi)
	}
	// With n=400, sd=2: the 95% CI half-width should be roughly
	// 1.96*2/20 ≈ 0.2; the true mean 10 should be inside.
	if ci.Lo > 10 || ci.Hi < 10 {
		t.Errorf("true mean 10 outside [%v, %v]", ci.Lo, ci.Hi)
	}
	if ci.Hi-ci.Lo > 1 {
		t.Errorf("interval too wide: [%v, %v]", ci.Lo, ci.Hi)
	}
}

func TestBootstrapCIConstantSample(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ci, err := MeanCI([]float64{5, 5, 5, 5}, 50, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo != 5 || ci.Hi != 5 || ci.Point != 5 {
		t.Errorf("constant sample CI = %+v, want degenerate at 5", ci)
	}
}

func TestBootstrapCIValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	if _, err := MeanCI(nil, 10, 0.95, rng); !errors.Is(err, ErrEmptySample) {
		t.Errorf("err = %v, want ErrEmptySample", err)
	}
	if _, err := MeanCI([]float64{1}, 10, 0.95, nil); !errors.Is(err, ErrNoRNG) {
		t.Errorf("err = %v, want ErrNoRNG", err)
	}
	if _, err := MeanCI([]float64{1}, 1, 0.95, rng); err == nil {
		t.Error("replicates=1 accepted")
	}
	if _, err := MeanCI([]float64{1}, 10, 1.5, rng); err == nil {
		t.Error("level=1.5 accepted")
	}
}

func TestBootstrapCICustomStatistic(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	xs := []float64{1, 2, 3, 4, 100}
	median := func(v []float64) float64 {
		sorted := append([]float64(nil), v...)
		sort.Float64s(sorted)
		return quantileSorted(sorted, 0.5)
	}
	ci, err := BootstrapCI(xs, median, 200, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Point != 3 {
		t.Errorf("median point = %v, want 3", ci.Point)
	}
	// A median CI is robust to the outlier: the high bound stays modest.
	if ci.Hi > 100 {
		t.Errorf("median CI hit the outlier: %+v", ci)
	}
}

// Property: intervals are ordered and contain the point estimate for the
// mean statistic (a linear statistic of the resamples).
func TestQuickBootstrapOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 5+rng.Intn(60))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		ci, err := MeanCI(xs, 100, 0.9, rng)
		if err != nil {
			return false
		}
		return ci.Lo <= ci.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
