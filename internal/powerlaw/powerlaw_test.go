package powerlaw

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHurwitzZetaRiemannValues(t *testing.T) {
	// ζ(2, 1) = π²/6, ζ(4, 1) = π⁴/90.
	if got, want := hurwitzZeta(2, 1), math.Pi*math.Pi/6; math.Abs(got-want) > 1e-8 {
		t.Errorf("zeta(2,1) = %v, want %v", got, want)
	}
	if got, want := hurwitzZeta(4, 1), math.Pow(math.Pi, 4)/90; math.Abs(got-want) > 1e-8 {
		t.Errorf("zeta(4,1) = %v, want %v", got, want)
	}
}

func TestPowerLawNormalization(t *testing.T) {
	p := NewPowerLaw(2.5, 1)
	var total float64
	for x := 1; x <= 200000; x++ {
		total += math.Exp(p.LogProb(x))
	}
	if math.Abs(total-1) > 1e-3 {
		t.Errorf("power-law mass sums to %v, want ~1", total)
	}
}

func TestExponentialNormalization(t *testing.T) {
	e := NewExponential(0.3, 2)
	var total float64
	for x := 2; x <= 300; x++ {
		total += math.Exp(e.LogProb(x))
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("exponential mass sums to %v, want 1", total)
	}
}

func TestLogNormalNormalization(t *testing.T) {
	l := NewLogNormal(2, 0.8, 1)
	var total float64
	for x := 1; x <= 100000; x++ {
		total += math.Exp(l.LogProb(x))
	}
	if math.Abs(total-1) > 1e-3 {
		t.Errorf("log-normal mass sums to %v, want ~1", total)
	}
}

func TestCDFMatchesMassSums(t *testing.T) {
	models := []Dist{
		NewPowerLaw(2.2, 3),
		NewExponential(0.5, 3),
		NewLogNormal(1.5, 0.7, 3),
	}
	for _, m := range models {
		var cum float64
		for x := 3; x <= 60; x++ {
			cum += math.Exp(m.LogProb(x))
			if diff := math.Abs(cum - m.CDF(x)); diff > 1e-3 {
				t.Errorf("%s: CDF(%d) = %v, mass sum %v", m.Name(), x, m.CDF(x), cum)
				break
			}
		}
	}
}

func TestFitPowerLawRecoversAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := SamplePowerLaw(20000, 2.5, 5, rng)
	fit, err := FitPowerLaw(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-2.5) > 0.1 {
		t.Errorf("alpha = %v, want 2.5±0.1", fit.Alpha)
	}
}

func TestFitExponentialRecoversLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	data := SampleExponential(20000, 0.4, 3, rng)
	fit, err := FitExponential(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Lambda-0.4) > 0.05 {
		t.Errorf("lambda = %v, want 0.4±0.05", fit.Lambda)
	}
}

func TestFitLogNormalRecoversParams(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	data := SampleLogNormal(20000, 3.0, 0.6, 1, rng)
	fit, err := FitLogNormal(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-3.0) > 0.15 {
		t.Errorf("mu = %v, want 3.0±0.15", fit.Mu)
	}
	if math.Abs(fit.Sigma-0.6) > 0.15 {
		t.Errorf("sigma = %v, want 0.6±0.15", fit.Sigma)
	}
}

func TestEmptyTailErrors(t *testing.T) {
	data := []int{1, 2, 3}
	if _, err := FitPowerLaw(data, 10); !errors.Is(err, ErrEmptyTail) {
		t.Errorf("FitPowerLaw err = %v, want ErrEmptyTail", err)
	}
	if _, err := FitLogNormal(data, 10); !errors.Is(err, ErrEmptyTail) {
		t.Errorf("FitLogNormal err = %v, want ErrEmptyTail", err)
	}
	if _, err := FitExponential(data, 10); !errors.Is(err, ErrEmptyTail) {
		t.Errorf("FitExponential err = %v, want ErrEmptyTail", err)
	}
}

func TestDegenerateTailErrors(t *testing.T) {
	data := []int{4, 4, 4, 4}
	if _, err := FitPowerLaw(data, 4); !errors.Is(err, ErrDegenerate) {
		t.Errorf("FitPowerLaw err = %v, want ErrDegenerate", err)
	}
	if _, err := FitExponential(data, 4); !errors.Is(err, ErrDegenerate) {
		t.Errorf("FitExponential err = %v, want ErrDegenerate", err)
	}
}

func TestLRTestFavoursTrueModelPowerLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	data := SamplePowerLaw(8000, 2.3, 2, rng)
	pl, err := FitPowerLaw(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := FitExponential(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	test, err := LogLikelihoodRatio(pl, exp, data)
	if err != nil {
		t.Fatal(err)
	}
	if test.Winner() != "power-law" {
		t.Errorf("winner = %q (R=%v, p=%v), want power-law", test.Winner(), test.R, test.PValue)
	}
}

func TestLRTestFavoursTrueModelLogNormal(t *testing.T) {
	// Fit over the full body (xmin=1), where the log-normal curvature is
	// identifiable — matching the paper's Fig. 3, which fits the whole
	// in-degree distribution. Deep-tail cuts make power law and
	// log-normal genuinely indistinguishable (Clauset et al.).
	rng := rand.New(rand.NewSource(46))
	data := SampleLogNormal(8000, 3.5, 0.5, 1, rng)
	res, err := FitAt(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != "log-normal" {
		t.Errorf("Best = %q, want log-normal (PLvsLN R=%v p=%v)",
			res.Best, res.PLvsLN.R, res.PLvsLN.PValue)
	}
	if math.Abs(res.LogNormal.Mu-3.5) > 0.1 || math.Abs(res.LogNormal.Sigma-0.5) > 0.1 {
		t.Errorf("recovered mu=%v sigma=%v, want 3.5/0.5", res.LogNormal.Mu, res.LogNormal.Sigma)
	}
}

func TestFitPipelinePowerLawData(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	data := SamplePowerLaw(10000, 1.8, 4, rng)
	res, err := Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != "power-law" {
		t.Errorf("Best = %q, want power-law", res.Best)
	}
	if res.PowerLaw.Alpha < 1.5 || res.PowerLaw.Alpha > 2.2 {
		t.Errorf("alpha = %v, want ≈1.8", res.PowerLaw.Alpha)
	}
}

func TestFitAtExplicitXmin(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	data := SampleExponential(5000, 0.25, 1, rng)
	res, err := FitAt(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != "exponential" {
		t.Errorf("Best = %q, want exponential", res.Best)
	}
}

func TestFindXminEmpty(t *testing.T) {
	if _, err := FindXmin(nil, 0); !errors.Is(err, ErrEmptyTail) {
		t.Errorf("err = %v, want ErrEmptyTail", err)
	}
	if _, err := FindXmin([]int{0, -3}, 0); !errors.Is(err, ErrEmptyTail) {
		t.Errorf("err = %v, want ErrEmptyTail", err)
	}
}

func TestLRTestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	data := SamplePowerLaw(3000, 2.0, 1, rng)
	pl, _ := FitPowerLaw(data, 1)
	ln, _ := FitLogNormal(data, 1)
	ab, err := LogLikelihoodRatio(pl, ln, data)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := LogLikelihoodRatio(ln, pl, data)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab.R+ba.R) > 1e-9 || math.Abs(ab.PValue-ba.PValue) > 1e-9 {
		t.Errorf("LR test not antisymmetric: %+v vs %+v", ab, ba)
	}
}

// Property: all three CDFs are monotone, start ≥ 0 and remain ≤ 1 + eps.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xmin := 1 + rng.Intn(5)
		models := []Dist{
			NewPowerLaw(1.2+rng.Float64()*3, xmin),
			NewExponential(0.05+rng.Float64()*2, xmin),
			NewLogNormal(rng.Float64()*4, 0.2+rng.Float64()*2, xmin),
		}
		for _, m := range models {
			prev := -1e-12
			for x := xmin; x < xmin+200; x++ {
				c := m.CDF(x)
				if c < prev-1e-9 || c > 1+1e-6 || math.IsNaN(c) {
					return false
				}
				prev = c
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: samplers only produce values >= xmin.
func TestQuickSamplersRespectXmin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xmin := 1 + rng.Intn(10)
		for _, xs := range [][]int{
			SamplePowerLaw(200, 1.5+rng.Float64()*2, xmin, rng),
			SampleLogNormal(200, 2, 0.5, xmin, rng),
			SampleExponential(200, 0.5, xmin, rng),
		} {
			for _, x := range xs {
				if x < xmin {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
