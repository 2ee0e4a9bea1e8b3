package powerlaw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The reference oracles below are the fitting kernels written the
// direct way: every power-law CDF value is a fresh hurwitzZeta call, the
// log-normal likelihood sums LogProb point by point, and every kernel
// works on its own copy of the tail. The fast kernels must agree with
// them bit for bit.

// refTail copies the data points >= xmin.
func refTail(data []int, xmin int) []int {
	var out []int
	for _, x := range data {
		if x >= xmin {
			out = append(out, x)
		}
	}
	return out
}

// refKS is the KS distance with one model CDF call per side of every
// distinct tail value.
func refKS(d Dist, data []int) (float64, error) {
	t := refTail(data, d.Xmin())
	if len(t) == 0 {
		return 0, ErrEmptyTail
	}
	sorted := append([]int(nil), t...)
	sort.Ints(sorted)
	n := float64(len(sorted))
	var ks float64
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
		if diff := math.Abs(after - d.CDF(x)); diff > ks {
			ks = diff
		}
		if diff := math.Abs(before - d.CDF(x-1)); diff > ks {
			ks = diff
		}
		i = j
	}
	return ks, nil
}

func refFitPowerLaw(data []int, xmin int) (*PowerLaw, error) {
	t := refTail(data, xmin)
	if len(t) == 0 {
		return nil, ErrEmptyTail
	}
	var logSum float64
	allMin := true
	for _, x := range t {
		logSum += math.Log(float64(x))
		if x != xmin {
			allMin = false
		}
	}
	if allMin {
		return nil, ErrDegenerate
	}
	n := float64(len(t))
	ll := func(alpha float64) float64 {
		return -alpha*logSum - n*math.Log(hurwitzZeta(alpha, float64(xmin)))
	}
	return NewPowerLaw(goldenSection(ll, 1.01, 6.0, 1e-4), xmin), nil
}

func refFitLogNormal(data []int, xmin int) (*LogNormal, error) {
	t := refTail(data, xmin)
	if len(t) == 0 {
		return nil, ErrEmptyTail
	}
	var sum, sumSq float64
	for _, x := range t {
		lx := math.Log(float64(x))
		sum += lx
		sumSq += lx * lx
	}
	n := float64(len(t))
	mu := sum / n
	sigma := math.Sqrt(math.Max(sumSq/n-mu*mu, 1e-4))
	ll := func(mu, sigma float64) float64 {
		m := NewLogNormal(mu, sigma, xmin)
		var total float64
		for _, x := range t {
			total += m.LogProb(x)
		}
		return total
	}
	for iter := 0; iter < 6; iter++ {
		mu = goldenSection(func(m float64) float64 { return ll(m, sigma) }, mu-3*sigma-1, mu+3*sigma+1, 1e-4)
		sigma = goldenSection(func(s float64) float64 { return ll(mu, s) }, 0.05, 4*sigma+1, 1e-4)
	}
	return NewLogNormal(mu, sigma, xmin), nil
}

func refFindXmin(data []int) (int, error) {
	distinct := map[int]bool{}
	for _, x := range data {
		if x >= 1 {
			distinct[x] = true
		}
	}
	if len(data) == 0 || len(distinct) == 0 {
		return 0, ErrEmptyTail
	}
	var candidates []int
	for x := range distinct {
		candidates = append(candidates, x)
	}
	sort.Ints(candidates)
	if cut := (len(candidates)*9 + 9) / 10; cut >= 1 && cut < len(candidates) {
		candidates = candidates[:cut]
	}
	if len(candidates) > 50 {
		step := float64(len(candidates)) / 50
		var picked []int
		for i := 0; i < 50; i++ {
			picked = append(picked, candidates[int(float64(i)*step)])
		}
		candidates = picked
	}
	bestXmin, bestKS := 0, math.Inf(1)
	for _, xm := range candidates {
		fit, err := refFitPowerLaw(data, xm)
		if err != nil {
			continue
		}
		if ks, _ := refKS(fit, data); ks < bestKS {
			bestKS, bestXmin = ks, xm
		}
	}
	if bestXmin == 0 {
		return 0, ErrDegenerate
	}
	return bestXmin, nil
}

// refFitAt is FitAt over the reference kernels; the likelihood-ratio
// tests and the decision rule are shared.
func refFitAt(data []int, xmin int) (*FitResult, error) {
	pl, err := refFitPowerLaw(data, xmin)
	if err != nil {
		return nil, err
	}
	ln, err := refFitLogNormal(data, xmin)
	if err != nil {
		return nil, err
	}
	exp, err := FitExponential(data, xmin)
	if err != nil {
		return nil, err
	}
	res := &FitResult{Xmin: xmin, PowerLaw: pl, LogNormal: ln, Exponential: exp}
	res.KSPowerLaw, _ = refKS(pl, data)
	res.KSLogNormal, _ = refKS(ln, data)
	res.KSExponential, _ = refKS(exp, data)
	res.PLvsLN, _ = LogLikelihoodRatio(pl, ln, data)
	res.PLvsExp, _ = LogLikelihoodRatio(pl, exp, data)
	res.LNvsExp, _ = LogLikelihoodRatio(ln, exp, data)
	res.Best = decide(res)
	return res, nil
}

func refFit(data []int) (*FitResult, error) {
	xmin, err := refFindXmin(data)
	if err != nil {
		return nil, err
	}
	return refFitAt(data, xmin)
}

// errClass reduces an error to the sentinel it wraps, so fast and
// reference failures compare by kind rather than by message.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrEmptyTail):
		return "empty-tail"
	case errors.Is(err, ErrDegenerate):
		return "degenerate"
	}
	return "other: " + err.Error()
}

// bitsDiff names the first field where two float lists differ in bits.
func bitsDiff(names []string, got, want []float64) string {
	for i := range names {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s = %v (%#x), reference %v (%#x)",
				names[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

func fitFields(r *FitResult) []float64 {
	return []float64{
		r.PowerLaw.Alpha, r.LogNormal.Mu, r.LogNormal.Sigma, r.Exponential.Lambda,
		r.KSPowerLaw, r.KSLogNormal, r.KSExponential,
		r.PLvsLN.R, r.PLvsLN.Z, r.PLvsLN.PValue,
		r.PLvsExp.R, r.PLvsExp.Z, r.PLvsExp.PValue,
		r.LNvsExp.R, r.LNvsExp.Z, r.LNvsExp.PValue,
	}
}

var fitFieldNames = []string{
	"alpha", "mu", "sigma", "lambda",
	"KS power-law", "KS log-normal", "KS exponential",
	"PLvsLN.R", "PLvsLN.Z", "PLvsLN.P",
	"PLvsExp.R", "PLvsExp.Z", "PLvsExp.P",
	"LNvsExp.R", "LNvsExp.Z", "LNvsExp.P",
}

// checkFitKernels compares every fast kernel with its reference on the
// data at the given cutoff, and the full Fit pipeline when scan is set.
func checkFitKernels(t *testing.T, data []int, xmin int, scan bool) {
	t.Helper()
	pl, err := FitPowerLaw(data, xmin)
	refPL, refErr := refFitPowerLaw(data, xmin)
	if errClass(err) != errClass(refErr) {
		t.Fatalf("FitPowerLaw(xmin=%d) err %v, reference %v", xmin, err, refErr)
	}
	if err == nil {
		if d := bitsDiff([]string{"alpha"}, []float64{pl.Alpha}, []float64{refPL.Alpha}); d != "" {
			t.Fatalf("FitPowerLaw(xmin=%d): %s", xmin, d)
		}
	}

	ln, err := FitLogNormal(data, xmin)
	refLN, refErr := refFitLogNormal(data, xmin)
	if errClass(err) != errClass(refErr) {
		t.Fatalf("FitLogNormal(xmin=%d) err %v, reference %v", xmin, err, refErr)
	}
	if err == nil {
		if d := bitsDiff([]string{"mu", "sigma"}, []float64{ln.Mu, ln.Sigma}, []float64{refLN.Mu, refLN.Sigma}); d != "" {
			t.Fatalf("FitLogNormal(xmin=%d): %s", xmin, d)
		}
	}

	// KS of a power law at fixed exponents, independent of the fit.
	for _, alpha := range []float64{1.3, 2.5} {
		m := NewPowerLaw(alpha, xmin)
		ks, err := ksStatistic(m, data)
		refKSv, refErr := refKS(m, data)
		if errClass(err) != errClass(refErr) {
			t.Fatalf("ksStatistic(alpha=%v, xmin=%d) err %v, reference %v", alpha, xmin, err, refErr)
		}
		if d := bitsDiff([]string{"KS"}, []float64{ks}, []float64{refKSv}); d != "" {
			t.Fatalf("ksStatistic(alpha=%v, xmin=%d): %s", alpha, xmin, d)
		}
	}

	compare := func(label string, got *FitResult, err error, want *FitResult, refErr error) {
		t.Helper()
		if errClass(err) != errClass(refErr) {
			t.Fatalf("%s err %v, reference %v", label, err, refErr)
		}
		if err != nil {
			return
		}
		if got.Xmin != want.Xmin || got.Best != want.Best {
			t.Fatalf("%s: xmin %d best %q, reference xmin %d best %q", label, got.Xmin, got.Best, want.Xmin, want.Best)
		}
		if d := bitsDiff(fitFieldNames, fitFields(got), fitFields(want)); d != "" {
			t.Fatalf("%s: %s", label, d)
		}
	}
	got, err := FitAt(data, xmin)
	want, refErr := refFitAt(data, xmin)
	compare(fmt.Sprintf("FitAt(xmin=%d)", xmin), got, err, want, refErr)
	if scan {
		got, err := Fit(data)
		want, refErr := refFit(data)
		compare("Fit", got, err, want, refErr)
	}
}

func TestFitKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	heavy := SamplePowerLaw(400, 1.6, 1, rng)
	heavy = append(heavy, 1_000_000_000, 250_000_000, 999_999_999, 1_000_000_000)
	cases := []struct {
		name string
		data []int
		xmin int
	}{
		{"power-law-1.5", SamplePowerLaw(600, 1.5, 1, rng), 1},
		{"power-law-2.5", SamplePowerLaw(600, 2.5, 3, rng), 3},
		{"log-normal", SampleLogNormal(600, 2.5, 0.7, 1, rng), 1},
		{"exponential", SampleExponential(600, 0.2, 2, rng), 2},
		{"heavy-tail-1e9", heavy, 1},
		{"all-equal-tail", []int{1, 2, 3, 5, 5, 5, 5}, 5},
		{"all-equal", []int{7, 7, 7, 7}, 7},
		{"single-point", []int{42}, 42},
		{"xmin-1", []int{1, 1, 2, 3, 1, 8, 2, 40, 1, 5}, 1},
		{"zeros-and-negatives", []int{0, -4, 3, 0, 9, 2, 2, -1, 17}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkFitKernels(t, c.data, c.xmin, true)
			if c.xmin > 1 {
				checkFitKernels(t, c.data, 1, false)
			}
		})
	}
}

// TestLogNormalLikelihoodMatchesPerPointSum checks the per-value
// likelihood against the per-point sum directly, over a grid of
// parameters: the fitted (μ, σ) alone could hide a summation-order
// change behind golden-section comparisons that happen not to flip.
func TestLogNormalLikelihoodMatchesPerPointSum(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	data := append(SampleLogNormal(500, 2, 0.9, 1, rng), 1, 1, 3_000_000, 0, -2)
	for _, xmin := range []int{1, 4, 30} {
		tl := newLogNormalTail(data, xmin)
		for _, mu := range []float64{-1, 0.5, 2, 6} {
			for _, sigma := range []float64{0.05, 0.7, 3} {
				m := NewLogNormal(mu, sigma, xmin)
				var want float64
				for _, x := range refTail(data, xmin) {
					want += m.LogProb(x)
				}
				if got := tl.logLikelihood(mu, sigma); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("xmin=%d mu=%v sigma=%v: likelihood %v, per-point sum %v", xmin, mu, sigma, got, want)
				}
			}
		}
	}
}

// TestPowerLawDrawMatchesSampler pins the bootstrap's inline draw to
// SamplePowerLaw's sequence for the same seed.
func TestPowerLawDrawMatchesSampler(t *testing.T) {
	want := SamplePowerLaw(500, 2.2, 3, rand.New(rand.NewSource(61)))
	rng := rand.New(rand.NewSource(61))
	for i, w := range want {
		if got := powerLawDraw(2.2, 3, rng); got != w {
			t.Fatalf("draw %d = %d, SamplePowerLaw gave %d", i, got, w)
		}
	}
}

// FuzzFitKernels feeds arbitrary integer samples (varint-encoded, so
// zero, negative and huge values all occur) through the fast kernels
// and their references; every output must agree bit for bit.
func FuzzFitKernels(f *testing.F) {
	encode := func(xs ...int64) []byte {
		var out []byte
		for _, x := range xs {
			out = binary.AppendVarint(out, x)
		}
		return out
	}
	f.Add(encode(1, 2, 3, 4, 5, 8, 13, 40), int8(1))
	f.Add(encode(5, 5, 5, 5), int8(5))
	f.Add(encode(3, 1_000_000_000, 7, 2, 2, 900), int8(2))
	f.Add(encode(0, -7, 1<<62, 4, 4, 9), int8(0))
	f.Fuzz(func(t *testing.T, raw []byte, xmin int8) {
		var data []int
		for len(raw) > 0 && len(data) < 24 {
			x, n := binary.Varint(raw)
			if n <= 0 {
				break
			}
			data = append(data, int(x))
			raw = raw[n:]
		}
		checkFitKernels(t, data, int(xmin), true)
	})
}
