package synth

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/score"
	"gpluscircles/internal/stats"
)

// smallEgoConfig is a fast test-scale configuration.
func smallEgoConfig(seed int64) EgoConfig {
	cfg := DefaultEgoConfig()
	cfg.NumEgos = 10
	cfg.MeanEgoSize = 40
	cfg.PoolSize = 300
	cfg.IntraEgoDegree = 18
	cfg.Seed = seed
	return cfg
}

func TestEgoConfigValidate(t *testing.T) {
	bad := []func(*EgoConfig){
		func(c *EgoConfig) { c.NumEgos = 0 },
		func(c *EgoConfig) { c.MeanEgoSize = 1 },
		func(c *EgoConfig) { c.PoolSize = 1 },
		func(c *EgoConfig) { c.SharedFraction = 1.5 },
		func(c *EgoConfig) { c.Reciprocity = -0.1 },
		func(c *EgoConfig) { c.MinCircles = 0 },
		func(c *EgoConfig) { c.MaxCircles = 0 },
		func(c *EgoConfig) { c.CircleFraction = 0 },
		func(c *EgoConfig) { c.CelebrityFraction = 2 },
	}
	for i, mutate := range bad {
		cfg := DefaultEgoConfig()
		mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, errBadConfig) {
			t.Errorf("case %d: err = %v, want errBadConfig", i, err)
		}
	}
	if err := DefaultEgoConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestGenerateEgoStructure(t *testing.T) {
	ds, err := GenerateEgo(smallEgoConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	if !g.Directed() {
		t.Error("ego graph must be directed")
	}
	if ds.Kind != Circles {
		t.Errorf("Kind = %v, want Circles", ds.Kind)
	}
	if len(ds.Groups) < 10*2 {
		t.Errorf("got %d circles, want >= 20 (2 per ego minimum)", len(ds.Groups))
	}
	if len(ds.Owners) != 10 {
		t.Errorf("owners = %d, want 10", len(ds.Owners))
	}
	for _, grp := range ds.Groups {
		if len(grp.Members) < 3 {
			t.Errorf("circle %s has %d members, want >= 3", grp.Name, len(grp.Members))
		}
		for _, v := range grp.Members {
			if int(v) >= g.NumVertices() || v < 0 {
				t.Fatalf("circle %s has invalid member %d", grp.Name, v)
			}
		}
	}
	if len(ds.EgoMembership) != g.NumVertices() {
		t.Fatalf("EgoMembership len %d != n %d", len(ds.EgoMembership), g.NumVertices())
	}
}

func TestGenerateEgoOverlap(t *testing.T) {
	ds, err := GenerateEgo(smallEgoConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	// The shared pool must place some vertices into multiple ego
	// networks (the paper: 93.5% of ego networks overlap).
	multi := 0
	for _, c := range ds.EgoMembership {
		if c >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no vertex belongs to >= 2 ego networks; overlap not planted")
	}
}

func TestGenerateEgoMostlyConnected(t *testing.T) {
	ds, err := GenerateEgo(smallEgoConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	lc := graphalgo.LargestComponent(ds.Graph)
	frac := float64(len(lc)) / float64(ds.Graph.NumVertices())
	if frac < 0.9 {
		t.Errorf("largest component covers %.2f of vertices, want >= 0.9", frac)
	}
}

func TestGenerateEgoCirclesDenseAndOpen(t *testing.T) {
	ds, err := GenerateEgo(smallEgoConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	ctx := score.NewContext(ds.Graph)
	res := score.EvaluateGroups(ctx, ds.Groups, []score.Func{score.AverageDegree(), score.Conductance()})
	// Circles should be internally dense yet heavily connected outward:
	// mean conductance close to 1 (paper: ~90% above 0.9).
	meanCond := stats.Mean(res["conductance"])
	if meanCond < 0.6 {
		t.Errorf("mean circle conductance = %v, want > 0.6 (circles are open)", meanCond)
	}
	meanAvgDeg := stats.Mean(res["avgdeg"])
	if meanAvgDeg < 1 {
		t.Errorf("mean circle average degree = %v, want >= 1 (circles are dense)", meanAvgDeg)
	}
}

func TestGenerateFollowerStructure(t *testing.T) {
	cfg := DefaultFollowerConfig()
	cfg.NumVertices = 800
	cfg.NumLists = 30
	ds, err := GenerateFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	if !g.Directed() {
		t.Error("follower graph must be directed")
	}
	if g.NumVertices() != 800 {
		t.Errorf("n = %d, want 800", g.NumVertices())
	}
	if len(ds.Groups) == 0 {
		t.Fatal("no lists generated")
	}
	// Heavy-tailed in-degree: the max should dwarf the mean.
	maxIn := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(graph.VID(v)); d > maxIn {
			maxIn = d
		}
	}
	if float64(maxIn) < 5*g.MeanInDegree() {
		t.Errorf("max in-degree %d vs mean %.1f: tail not heavy", maxIn, g.MeanInDegree())
	}
}

func TestGenerateFollowerSparserThanEgo(t *testing.T) {
	ego, err := GenerateEgo(smallEgoConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFollowerConfig()
	cfg.NumVertices = 800
	tw, err := GenerateFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tw.Graph.MeanDegree() >= ego.Graph.MeanDegree() {
		t.Errorf("twitter mean degree %.1f >= google+ %.1f; density contrast not planted",
			tw.Graph.MeanDegree(), ego.Graph.MeanDegree())
	}
}

func TestGenerateAGMStructure(t *testing.T) {
	cfg := DefaultLiveJournalConfig()
	cfg.NumVertices = 2000
	cfg.NumCommunities = 60
	cfg.MaxCommunitySize = 150
	ds, err := GenerateAGM("LiveJournal", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.Directed() {
		t.Error("AGM graph must be undirected")
	}
	if ds.Kind != Communities {
		t.Errorf("Kind = %v, want Communities", ds.Kind)
	}
	if len(ds.Groups) < 50 {
		t.Errorf("groups = %d, want >= 50", len(ds.Groups))
	}
	for _, grp := range ds.Groups {
		if len(grp.Members) < cfg.MinCommunitySize-2 {
			t.Errorf("community %s size %d below minimum", grp.Name, len(grp.Members))
		}
	}
}

func TestCommunitiesMoreClosedThanCircles(t *testing.T) {
	// The paper's central finding must be planted: community conductance
	// below circle conductance, community ratio cut vanishing.
	ljCfg := DefaultLiveJournalConfig()
	ljCfg.NumVertices = 2500
	ljCfg.NumCommunities = 80
	ljCfg.MaxCommunitySize = 120
	lj, err := GenerateAGM("LiveJournal", ljCfg)
	if err != nil {
		t.Fatal(err)
	}
	ego, err := GenerateEgo(smallEgoConfig(12))
	if err != nil {
		t.Fatal(err)
	}

	fns := []score.Func{score.Conductance(), score.RatioCut()}
	ljRes := score.EvaluateGroups(score.NewContext(lj.Graph), lj.Groups, fns)
	egoRes := score.EvaluateGroups(score.NewContext(ego.Graph), ego.Groups, fns)

	ljCond := stats.Mean(ljRes["conductance"])
	egoCond := stats.Mean(egoRes["conductance"])
	if ljCond >= egoCond {
		t.Errorf("community conductance %.3f >= circle conductance %.3f", ljCond, egoCond)
	}
	ljCut := stats.Mean(ljRes["ratiocut"])
	egoCut := stats.Mean(egoRes["ratiocut"])
	if ljCut >= egoCut {
		t.Errorf("community ratio cut %.4f >= circle ratio cut %.4f", ljCut, egoCut)
	}
}

func TestGenerateCrawlStructure(t *testing.T) {
	cfg := DefaultCrawlConfig()
	cfg.NumVertices = 3000
	ds, err := GenerateCrawl(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	if !g.Directed() {
		t.Error("crawl graph must be directed")
	}
	if count, _ := graphalgo.ComponentSizes(g); count != 1 {
		t.Error("crawl graph must be weakly connected (spanning thread)")
	}
	if g.MeanDegree() > 60 {
		t.Errorf("crawl mean degree %.1f; expected sparse (<60)", g.MeanDegree())
	}
}

func TestCrawlSparserThanEgo(t *testing.T) {
	crawlCfg := DefaultCrawlConfig()
	crawlCfg.NumVertices = 3000
	crawl, err := GenerateCrawl(crawlCfg)
	if err != nil {
		t.Fatal(err)
	}
	ego, err := GenerateEgo(smallEgoConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	// Table II contrast: the ego-joined graph is far denser than the
	// BFS crawl.
	if ego.Graph.MeanDegree() < 2*crawl.Graph.MeanDegree() {
		t.Errorf("ego mean degree %.1f not >> crawl %.1f",
			ego.Graph.MeanDegree(), crawl.Graph.MeanDegree())
	}
}

func TestConfigValidationOthers(t *testing.T) {
	fc := DefaultFollowerConfig()
	fc.Attachment = 2
	if err := fc.Validate(); !errors.Is(err, errBadConfig) {
		t.Errorf("follower err = %v, want errBadConfig", err)
	}
	ac := DefaultLiveJournalConfig()
	ac.SizeExponent = 1
	if err := ac.Validate(); !errors.Is(err, errBadConfig) {
		t.Errorf("agm err = %v, want errBadConfig", err)
	}
	cc := DefaultCrawlConfig()
	cc.InAlpha = 0.5
	if err := cc.Validate(); !errors.Is(err, errBadConfig) {
		t.Errorf("crawl err = %v, want errBadConfig", err)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, err := GenerateEgo(smallEgoConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateEgo(smallEgoConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumVertices() != b.Graph.NumVertices() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Errorf("same seed produced different graphs: (%d,%d) vs (%d,%d)",
			a.Graph.NumVertices(), a.Graph.NumEdges(), b.Graph.NumVertices(), b.Graph.NumEdges())
	}
	if len(a.Groups) != len(b.Groups) {
		t.Errorf("same seed produced %d vs %d groups", len(a.Groups), len(b.Groups))
	}
}

// TestWeightedPicker checks the guide-table search against
// sort.SearchFloat64s, its oracle, at every cumulative weight and at both
// of its float neighbours, and checks that pick and pickAt return the
// oracle's index for the same draw. The weight sets cover zero weights, a
// single weight, an all-zero set and weights spanning 1e-300 to 1e300.
func TestWeightedPicker(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := newWeightedPicker([]float64{0, 10, 0})
	for i := 0; i < 100; i++ {
		if got := p.pick(rng); got != 1 {
			t.Fatalf("pick = %d, want 1 (only positive weight)", got)
		}
	}

	var spanning []float64
	for e := -300; e <= 300; e += 15 {
		spanning = append(spanning, math.Pow(10, float64(e)))
	}
	rng.Shuffle(len(spanning), func(i, j int) { spanning[i], spanning[j] = spanning[j], spanning[i] })
	random := make([]float64, 500)
	for i := range random {
		if rng.Intn(4) > 0 {
			random[i] = rng.ExpFloat64()
		}
	}
	sets := []struct {
		name    string
		weights []float64
	}{
		{"zeros around one", []float64{0, 10, 0}},
		{"single", []float64{5}},
		{"all zero", []float64{0, 0, 0}},
		{"equal", []float64{1, 1, 1, 1, 1, 1, 1}},
		{"spanning", spanning},
		{"random", random},
	}
	for _, set := range sets {
		name, p := set.name, newWeightedPicker(set.weights)
		n := len(p.cum)
		var probes []float64
		for _, c := range p.cum {
			probes = append(probes, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
		}
		for _, x := range probes {
			if got, want := p.search(x), sort.SearchFloat64s(p.cum, x); got != want {
				t.Fatalf("%s: search(%g) = %d, sort.SearchFloat64s %d", name, x, got, want)
			}
			if p.total == 0 {
				continue
			}
			for _, u := range []float64{x / p.total, math.Nextafter(x/p.total, 0), math.Nextafter(x/p.total, 1)} {
				if u < 0 || u >= 1 {
					continue
				}
				want := min(sort.SearchFloat64s(p.cum, u*p.total), n-1)
				if got := p.pickAt(u); got != want {
					t.Fatalf("%s: pickAt(%g) = %d, want %d", name, u, got, want)
				}
			}
		}
		draws, oracle := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			want := sort.SearchFloat64s(p.cum, oracle.Float64()*p.total)
			if got := p.pick(draws); got != want {
				t.Fatalf("%s: draw %d: pick = %d, want %d", name, i, got, want)
			}
		}
	}
}

// boundedPowerLawInt is the per-draw formula boundedPowerLaw hoists:
// four math.Pow calls, three of them constant for given bounds. Its
// value before rounding is the oracle the sampler must match bit for
// bit.
func boundedPowerLawInt(rng *rand.Rand, exp float64, lo, hi int) int {
	v := int(boundedPowerLawReal(rng.Float64(), exp, lo, hi))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

func boundedPowerLawReal(u, exp float64, lo, hi int) float64 {
	a, b := float64(lo), float64(hi)+0.999
	oneMinus := 1 - exp
	return math.Pow(u*(math.Pow(b, oneMinus)-math.Pow(a, oneMinus))+math.Pow(a, oneMinus), 1/oneMinus)
}

func TestBoundedPowerLawIntBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pl := newBoundedPowerLaw(2.5, 5, 50)
	for i := 0; i < 1000; i++ {
		v := pl.draw(rng)
		if v < 5 || v > 50 {
			t.Fatalf("value %d outside [5,50]", v)
		}
	}
}

// TestBoundedPowerLawMatchesOracle requires the hoisted sampler to give
// the four-Pow formula's float64 bits for random u, for u = 0 and
// u = 1−2^−53 (the largest Float64 below 1), at exponents next to 1 and
// with a single-value range, and the same draws from equal RNG streams.
func TestBoundedPowerLawMatchesOracle(t *testing.T) {
	cases := []struct {
		exp    float64
		lo, hi int
	}{
		{2.5, 5, 50}, {2.1, 2, 2000}, {2.2, 2, 2000}, {2.0, 8, 300},
		{1 + 1e-9, 1, 1000}, {1 - 1e-9, 1, 1000}, {0.5, 3, 40},
		{3, 7, 7}, {2.1, 1, 1}, {1 + 1e-9, 4, 4},
	}
	rng := rand.New(rand.NewSource(29))
	for _, tc := range cases {
		pl := newBoundedPowerLaw(tc.exp, tc.lo, tc.hi)
		us := []float64{0, 1 - 0x1p-53}
		for i := 0; i < 20000; i++ {
			us = append(us, rng.Float64())
		}
		for _, u := range us {
			if got, want := pl.at(u), boundedPowerLawReal(u, tc.exp, tc.lo, tc.hi); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("exp %v [%d, %d] u %v: sampler %v, formula %v", tc.exp, tc.lo, tc.hi, u, got, want)
			}
		}
		a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for i := 0; i < 1000; i++ {
			if got, want := pl.draw(a), boundedPowerLawInt(b, tc.exp, tc.lo, tc.hi); got != want {
				t.Fatalf("exp %v [%d, %d] draw %d: sampler %d, formula %d", tc.exp, tc.lo, tc.hi, i, got, want)
			}
		}
	}
}

// poissonFormula is poissonApprox as it stood before the sampler hoisted
// e^−mean: the oracle for the draws of both.
func poissonFormula(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(rng.NormFloat64()*math.Sqrt(mean) + mean))
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// A sampler built once per mean, and poissonApprox, must draw what the
// formula draws from equal RNG streams, for means at and below 0, small
// ones on both sides of 1, at the normal switch and above it.
func TestPoissonSamplerMatchesFormula(t *testing.T) {
	for _, mean := range []float64{-3, 0, 1e-300, 0.05, 0.5, 1, 4, 17.3, 30, math.Nextafter(30, 31), 50, 1e6} {
		sampler := newPoisson(mean)
		a, b, c := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			want := poissonFormula(c, mean)
			if got := sampler.draw(a); got != want {
				t.Fatalf("mean %v draw %d: sampler %d, formula %d", mean, i, got, want)
			}
			if got := poissonApprox(b, mean); got != want {
				t.Fatalf("mean %v draw %d: poissonApprox %d, formula %d", mean, i, got, want)
			}
		}
	}
}

func TestPoissonApproxMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mean := range []float64{0, 0.5, 4, 50} {
		var sum float64
		const trials = 4000
		for i := 0; i < trials; i++ {
			sum += float64(poissonApprox(rng, mean))
		}
		got := sum / trials
		if mean == 0 {
			if got != 0 {
				t.Errorf("mean 0 sampled %v", got)
			}
			continue
		}
		if got < mean*0.85 || got > mean*1.15 {
			t.Errorf("poisson mean %v sampled %v", mean, got)
		}
	}
}

// Property: group members are always valid dense indices and group names
// unique, for any seed.
func TestQuickEgoGroupsValid(t *testing.T) {
	f := func(seed int64) bool {
		cfg := smallEgoConfig(seed)
		cfg.NumEgos = 4
		cfg.MeanEgoSize = 20
		cfg.PoolSize = 100
		ds, err := GenerateEgo(cfg)
		if err != nil {
			return false
		}
		names := map[string]bool{}
		for _, grp := range ds.Groups {
			if names[grp.Name] {
				return false
			}
			names[grp.Name] = true
			for _, v := range grp.Members {
				if v < 0 || int(v) >= ds.Graph.NumVertices() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
