package powerlaw

import (
	"fmt"
	"math"
	"sort"
)

// PowerLaw is the discrete power law p(x) = x^(−α) / ζ(α, xmin).
type PowerLaw struct {
	Alpha   float64
	XminVal int
	zeta    float64 // ζ(alpha, xmin), cached normalizer
}

var _ Dist = (*PowerLaw)(nil)

// NewPowerLaw constructs the model with an explicit exponent.
func NewPowerLaw(alpha float64, xmin int) *PowerLaw {
	return &PowerLaw{Alpha: alpha, XminVal: xmin, zeta: hurwitzZeta(alpha, float64(xmin))}
}

// Name implements Dist.
func (p *PowerLaw) Name() string { return "power-law" }

// Xmin implements Dist.
func (p *PowerLaw) Xmin() int { return p.XminVal }

// LogProb implements Dist.
func (p *PowerLaw) LogProb(x int) float64 {
	if x < p.XminVal {
		return math.Inf(-1)
	}
	return -p.Alpha*math.Log(float64(x)) - math.Log(p.zeta)
}

// CDF implements Dist: 1 − ζ(α, x+1)/ζ(α, xmin).
func (p *PowerLaw) CDF(x int) float64 {
	if x < p.XminVal {
		return 0
	}
	return 1 - hurwitzZeta(p.Alpha, float64(x+1))/p.zeta
}

// scanCDF returns CDF as a closure that draws its ζ values from one
// zetaScan: bit-identical to CDF for any x, and cheap when called with
// nondecreasing x.
func (p *PowerLaw) scanCDF() func(int) float64 {
	z := &zetaScan{s: p.Alpha}
	return func(x int) float64 {
		if x < p.XminVal {
			return 0
		}
		return 1 - z.at(x+1)/p.zeta
	}
}

// Params implements Dist.
func (p *PowerLaw) Params() map[string]float64 {
	return map[string]float64{"alpha": p.Alpha}
}

// FitPowerLaw fits α by exact discrete maximum likelihood (golden-section
// search over α ∈ (1.01, 6]) on the tail of the data at the given xmin.
func FitPowerLaw(data []int, xmin int) (*PowerLaw, error) {
	var logSum float64
	count := 0
	allMin := true
	for _, x := range data {
		if x < xmin {
			continue
		}
		count++
		logSum += math.Log(float64(x))
		if x != xmin {
			allMin = false
		}
	}
	if count == 0 {
		return nil, ErrEmptyTail
	}
	if allMin {
		return nil, fmt.Errorf("%w: all tail values equal %d", ErrDegenerate, xmin)
	}
	n := float64(count)
	ll := func(alpha float64) float64 {
		return -alpha*logSum - n*math.Log(hurwitzZeta(alpha, float64(xmin)))
	}
	alpha := goldenSection(ll, 1.01, 6.0, 1e-4)
	return NewPowerLaw(alpha, xmin), nil
}

// LogNormal is a discretized, tail-conditioned log-normal:
// P(X=x) ∝ Φ((ln(x+½)−μ)/σ) − Φ((ln(x−½)−μ)/σ) for x ≥ xmin.
type LogNormal struct {
	Mu      float64
	Sigma   float64
	XminVal int
	tailP   float64 // P(X >= xmin) under the continuous model
}

var _ Dist = (*LogNormal)(nil)

// NewLogNormal constructs the model with explicit parameters.
func NewLogNormal(mu, sigma float64, xmin int) *LogNormal {
	ln := &LogNormal{Mu: mu, Sigma: sigma, XminVal: xmin}
	ln.tailP = 1 - ln.contCDF(float64(xmin)-0.5)
	return ln
}

// contCDF is the continuous log-normal CDF at v (0 for v <= 0).
func (l *LogNormal) contCDF(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return stdNormCDF((math.Log(v) - l.Mu) / l.Sigma)
}

// Name implements Dist.
func (l *LogNormal) Name() string { return "log-normal" }

// Xmin implements Dist.
func (l *LogNormal) Xmin() int { return l.XminVal }

// LogProb implements Dist.
func (l *LogNormal) LogProb(x int) float64 {
	if x < l.XminVal || l.tailP <= 0 {
		return math.Inf(-1)
	}
	p := l.contCDF(float64(x)+0.5) - l.contCDF(float64(x)-0.5)
	if p <= 0 {
		// Deep tail underflow: fall back to the log of the density
		// approximation to keep likelihood comparisons finite.
		z := (math.Log(float64(x)) - l.Mu) / l.Sigma
		return -0.5*z*z - math.Log(float64(x)*l.Sigma*math.Sqrt(2*math.Pi)) - math.Log(l.tailP)
	}
	return math.Log(p) - math.Log(l.tailP)
}

// CDF implements Dist.
func (l *LogNormal) CDF(x int) float64 {
	if x < l.XminVal || l.tailP <= 0 {
		return 0
	}
	lo := l.contCDF(float64(l.XminVal) - 0.5)
	return (l.contCDF(float64(x)+0.5) - lo) / l.tailP
}

// Params implements Dist.
func (l *LogNormal) Params() map[string]float64 {
	return map[string]float64{"mu": l.Mu, "sigma": l.Sigma}
}

// FitLogNormal fits (μ, σ) by maximum likelihood on the tail using
// alternating golden-section sweeps (coordinate ascent), initialized from
// the moments of ln(x).
func FitLogNormal(data []int, xmin int) (*LogNormal, error) {
	t := newLogNormalTail(data, xmin)
	if len(t.slot) == 0 {
		return nil, ErrEmptyTail
	}
	n := float64(len(t.slot))
	mu := t.sum / n
	sigma := math.Sqrt(math.Max(t.sumSq/n-mu*mu, 1e-4))
	for iter := 0; iter < 6; iter++ {
		mu = goldenSection(func(m float64) float64 { return t.logLikelihood(m, sigma) }, mu-3*sigma-1, mu+3*sigma+1, 1e-4)
		sigma = goldenSection(func(s float64) float64 { return t.logLikelihood(mu, s) }, 0.05, 4*sigma+1, 1e-4)
	}
	return NewLogNormal(mu, sigma, xmin), nil
}

// logNormalTail is the tail as FitLogNormal's likelihood reads it: the
// distinct tail values, and for each tail point in data order the index
// of its value.
type logNormalTail struct {
	xmin       int
	values     []int
	slot       []int32
	logProb    []float64 // per-value scratch for logLikelihood
	sum, sumSq float64   // Σ ln x and Σ (ln x)² over the tail, in data order
}

func newLogNormalTail(data []int, xmin int) *logNormalTail {
	t := &logNormalTail{xmin: xmin}
	index := map[int]int32{}
	for _, x := range data {
		if x < xmin {
			continue
		}
		j, ok := index[x]
		if !ok {
			j = int32(len(t.values))
			index[x] = j
			t.values = append(t.values, x)
		}
		t.slot = append(t.slot, j)
		lx := math.Log(float64(x))
		t.sum += lx
		t.sumSq += lx * lx
	}
	t.logProb = make([]float64, len(t.values))
	return t
}

// logLikelihood is Σ LogProb(x) over the tail points in data order, bit
// for bit, with LogProb evaluated once per distinct value.
func (t *logNormalTail) logLikelihood(mu, sigma float64) float64 {
	m := NewLogNormal(mu, sigma, t.xmin)
	for j, x := range t.values {
		t.logProb[j] = m.LogProb(x)
	}
	var total float64
	for _, j := range t.slot {
		total += t.logProb[j]
	}
	return total
}

// Exponential is the discrete (geometric-type) exponential tail
// P(X=x) = (1 − e^(−λ)) · e^(−λ(x−xmin)) for x ≥ xmin.
type Exponential struct {
	Lambda  float64
	XminVal int
}

var _ Dist = (*Exponential)(nil)

// NewExponential constructs the model with an explicit rate.
func NewExponential(lambda float64, xmin int) *Exponential {
	return &Exponential{Lambda: lambda, XminVal: xmin}
}

// Name implements Dist.
func (e *Exponential) Name() string { return "exponential" }

// Xmin implements Dist.
func (e *Exponential) Xmin() int { return e.XminVal }

// LogProb implements Dist.
func (e *Exponential) LogProb(x int) float64 {
	if x < e.XminVal {
		return math.Inf(-1)
	}
	return math.Log(1-math.Exp(-e.Lambda)) - e.Lambda*float64(x-e.XminVal)
}

// CDF implements Dist: 1 − e^(−λ(x−xmin+1)).
func (e *Exponential) CDF(x int) float64 {
	if x < e.XminVal {
		return 0
	}
	return 1 - math.Exp(-e.Lambda*float64(x-e.XminVal+1))
}

// Params implements Dist.
func (e *Exponential) Params() map[string]float64 {
	return map[string]float64{"lambda": e.Lambda}
}

// FitExponential fits λ by exact maximum likelihood: with mean excess
// m̄ = mean(x − xmin), the MLE is λ = ln(1 + 1/m̄).
func FitExponential(data []int, xmin int) (*Exponential, error) {
	t := tail(data, xmin)
	if len(t) == 0 {
		return nil, ErrEmptyTail
	}
	// Integer accumulation keeps the degeneracy test exact (floateq).
	var excess int64
	for _, x := range t {
		excess += int64(x - xmin)
	}
	if excess == 0 {
		return nil, fmt.Errorf("%w: all tail values equal %d", ErrDegenerate, xmin)
	}
	mean := float64(excess) / float64(len(t))
	return NewExponential(math.Log(1+1/mean), xmin), nil
}

// FindXmin scans candidate cutoffs (the distinct data values up to the
// 90th percentile) and returns the xmin minimizing the KS distance of the
// power-law fit, per the CSN procedure. maxCandidates bounds the scan for
// very diverse data; pass 0 for the default of 50.
func FindXmin(data []int, maxCandidates int) (int, error) {
	if len(data) == 0 {
		return 0, ErrEmptyTail
	}
	if maxCandidates <= 0 {
		maxCandidates = 50
	}
	// One sort serves both the candidate list and every candidate's KS
	// scan, which reads its ascending tail as a suffix of sorted.
	sorted := append([]int(nil), data...)
	sort.Ints(sorted)
	var candidates []int
	for _, x := range sorted[sort.SearchInts(sorted, 1):] {
		if len(candidates) == 0 || candidates[len(candidates)-1] != x {
			candidates = append(candidates, x)
		}
	}
	if len(candidates) == 0 {
		return 0, ErrEmptyTail
	}
	// Keep the tail identifiable: drop the top decile of candidates.
	if cut := (len(candidates)*9 + 9) / 10; cut >= 1 && cut < len(candidates) {
		candidates = candidates[:cut]
	}
	if len(candidates) > maxCandidates {
		// Evenly subsample the candidate list.
		step := float64(len(candidates)) / float64(maxCandidates)
		picked := make([]int, 0, maxCandidates)
		for i := 0; i < maxCandidates; i++ {
			picked = append(picked, candidates[int(float64(i)*step)])
		}
		candidates = picked
	}

	bestXmin, bestKS := 0, math.Inf(1)
	for _, xm := range candidates {
		fit, err := FitPowerLaw(data, xm)
		if err != nil {
			continue
		}
		if ks := ksSorted(fit, sorted[sort.SearchInts(sorted, xm):]); ks < bestKS {
			bestKS, bestXmin = ks, xm
		}
	}
	if bestXmin == 0 {
		return 0, ErrDegenerate
	}
	return bestXmin, nil
}
