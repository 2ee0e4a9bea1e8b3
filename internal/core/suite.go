package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/par"
	"gpluscircles/internal/powerlaw"
	"gpluscircles/internal/score"
	"gpluscircles/internal/synth"
)

// SuiteOptions configures the full reproduction run.
type SuiteOptions struct {
	// Scale multiplies the default data-set sizes; 1.0 is the
	// laptop-scale default (~1/25 of the paper), 0.1 a quick smoke run.
	Scale float64
	// Seed drives every generator and sampler deterministically.
	Seed int64
	// NullModelSamples > 0 enables the empirical Viger–Latapy modularity
	// null model where an experiment supports it.
	NullModelSamples int
	// DistanceSources bounds BFS sampling in graph characterization.
	DistanceSources int
	// ClusteringSamples bounds clustering-coefficient sampling.
	ClusteringSamples int
	// Recorder, when non-nil, receives the suite's metrics and spans:
	// stage spans for data-set generation and profiling, per-experiment
	// spans from the Ctx run surface, arena hit/miss counters and
	// score-function timers. Nil (the default) disables instrumentation
	// at zero cost — report bytes never depend on it either way.
	Recorder *obs.Recorder
}

func (o SuiteOptions) withDefaults() SuiteOptions {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.DistanceSources <= 0 {
		o.DistanceSources = 48
	}
	if o.ClusteringSamples <= 0 {
		o.ClusteringSamples = 1500
	}
	return o
}

// datasetCache memoizes one lazily generated data set.
type datasetCache struct {
	once sync.Once
	ds   *synth.Dataset
	err  error
}

// profileCache memoizes one CharacterizeGraph run.
type profileCache struct {
	once    sync.Once
	profile *GraphProfile
	err     error
}

// fitCache memoizes one in-degree fit.
type fitCache struct {
	once sync.Once
	fit  *powerlaw.FitResult
	err  error
}

// projectionCache memoizes one undirected projection.
type projectionCache struct {
	once sync.Once
	g    *graph.Graph
	err  error
}

// Suite generates and caches the synthetic data sets shared by the
// experiments, plus the derived per-data-set state the experiments would
// otherwise recompute: graph profiles (Table II / Fig. 4), in-degree fits
// (Table II / Fig. 3 / scorecard), analytic scoring contexts, and
// undirected projections (Section IV-B).
//
// A Suite is safe for concurrent use: every lazy cache is guarded by a
// sync.Once (or the suite mutex), so concurrent experiments generate each
// data set and each derived artifact exactly once.
type Suite struct {
	opts SuiteOptions

	gplus   datasetCache
	twitter datasetCache
	lj      datasetCache
	orkut   datasetCache
	crawl   datasetCache
	scale   datasetCache

	mu          sync.Mutex
	profiles    map[*synth.Dataset]*profileCache
	fits        map[*graph.Graph]*fitCache
	contexts    map[*graph.Graph]*score.Context
	projections map[*synth.Dataset]*projectionCache
	arenas      map[*graph.Graph]*graph.OverlayArena
}

// NewSuite creates a Suite; data sets are generated lazily.
func NewSuite(opts SuiteOptions) *Suite {
	return &Suite{opts: opts.withDefaults()}
}

// Options returns the effective (defaulted) options.
func (s *Suite) Options() SuiteOptions { return s.opts }

// Recorder returns the suite's observability recorder; nil when the run
// is uninstrumented. Experiments pass it to subsystems that accept one
// (estimator options, score contexts) — all of which treat nil as "off".
func (s *Suite) Recorder() *obs.Recorder { return s.opts.Recorder }

// stageSpan opens a span for a memoized suite stage (data-set
// generation, graph profiling) under parent, or at the root when parent
// is nil. Stages are triggered by whichever experiment needs them first
// and are shared by all others, so experiments pass nil and the stage is
// recorded flat rather than under any one experiment span; only Warm,
// which owns the generations it starts, passes its own span. The dataset
// attr ties a stage back to its artifact.
func (s *Suite) stageSpan(stage, dataset string, parent *obs.Span) *obs.Span {
	sp := parent.StartChild(stage)
	if parent == nil {
		sp = s.opts.Recorder.StartSpan(stage)
	}
	sp.SetAttr("dataset", dataset)
	return sp
}

// RNG returns a fresh deterministic RNG derived from the suite seed and
// the given stream label, so experiments don't perturb each other.
func (s *Suite) RNG(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(s.opts.Seed*1000003 + stream))
}

// scaleInt scales a default size, clamping at a floor.
func (s *Suite) scaleInt(v int, floor int) int {
	scaled := int(float64(v) * s.opts.Scale)
	if scaled < floor {
		scaled = floor
	}
	return scaled
}

// generate fills c from gen exactly once, under a "generate" span for
// the named data set: a child of parent, or a root span when parent is
// nil. Every later call returns the memoized result.
func (s *Suite) generate(c *datasetCache, name string, parent *obs.Span, gen func() (*synth.Dataset, error)) (*synth.Dataset, error) {
	c.once.Do(func() {
		defer s.stageSpan("generate", name, parent).End()
		c.ds, c.err = gen()
	})
	return c.ds, c.err
}

// GPlus returns the Google+-like ego data set.
func (s *Suite) GPlus() (*synth.Dataset, error) { return s.dataset("gplus", nil) }

// Twitter returns the Twitter-like follower data set.
func (s *Suite) Twitter() (*synth.Dataset, error) { return s.dataset("twitter", nil) }

// LiveJournal returns the LiveJournal-like community data set.
func (s *Suite) LiveJournal() (*synth.Dataset, error) { return s.dataset("livejournal", nil) }

// Orkut returns the Orkut-like community data set.
func (s *Suite) Orkut() (*synth.Dataset, error) { return s.dataset("orkut", nil) }

// Crawl returns the Magno-like BFS-crawl data set used by Table II.
func (s *Suite) Crawl() (*synth.Dataset, error) { return s.dataset("crawl", nil) }

func (s *Suite) generateGPlus() (*synth.Dataset, error) {
	cfg := synth.DefaultEgoConfig()
	cfg.NumEgos = s.scaleInt(cfg.NumEgos, 6)
	cfg.PoolSize = s.scaleInt(cfg.PoolSize, 200)
	cfg.MeanEgoSize = s.scaleInt(cfg.MeanEgoSize, 30)
	cfg.Seed = s.opts.Seed
	ds, err := synth.GenerateEgo(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate Google+ data set: %w", err)
	}
	return ds, nil
}

func (s *Suite) generateTwitter() (*synth.Dataset, error) {
	cfg := synth.DefaultFollowerConfig()
	cfg.NumVertices = s.scaleInt(cfg.NumVertices, 400)
	cfg.NumLists = s.scaleInt(cfg.NumLists, 20)
	cfg.Seed = s.opts.Seed + 1
	ds, err := synth.GenerateFollower(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate Twitter data set: %w", err)
	}
	return ds, nil
}

func (s *Suite) generateLiveJournal() (*synth.Dataset, error) {
	cfg := synth.DefaultLiveJournalConfig()
	cfg.NumVertices = s.scaleInt(cfg.NumVertices, 1500)
	cfg.NumCommunities = s.scaleInt(cfg.NumCommunities, 60)
	if cfg.MaxCommunitySize > cfg.NumVertices/4 {
		cfg.MaxCommunitySize = cfg.NumVertices / 4
	}
	cfg.Seed = s.opts.Seed + 2
	ds, err := synth.GenerateAGM("LiveJournal", cfg)
	if err != nil {
		return nil, fmt.Errorf("generate LiveJournal data set: %w", err)
	}
	return ds, nil
}

func (s *Suite) generateOrkut() (*synth.Dataset, error) {
	cfg := synth.DefaultOrkutConfig()
	cfg.NumVertices = s.scaleInt(cfg.NumVertices, 1500)
	cfg.NumCommunities = s.scaleInt(cfg.NumCommunities, 60)
	if cfg.MaxCommunitySize > cfg.NumVertices/4 {
		cfg.MaxCommunitySize = cfg.NumVertices / 4
	}
	cfg.Seed = s.opts.Seed + 3
	ds, err := synth.GenerateAGM("Orkut", cfg)
	if err != nil {
		return nil, fmt.Errorf("generate Orkut data set: %w", err)
	}
	return ds, nil
}

func (s *Suite) generateCrawl() (*synth.Dataset, error) {
	cfg := synth.DefaultCrawlConfig()
	cfg.NumVertices = s.scaleInt(cfg.NumVertices, 2000)
	cfg.Seed = s.opts.Seed + 4
	ds, err := synth.GenerateCrawl(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate crawl data set: %w", err)
	}
	return ds, nil
}

// ScaleCommunity returns the paper-scale community data set built
// through the streaming pipeline (sharded generation feeding
// graph.StreamBuilder). It is deliberately outside DatasetNames — the
// serve-layer registry keeps the five paper data sets — and is reached
// through the fig6-scale experiment and cmd/synthgen. At Scale 1 it is
// LiveJournal-like at 30k vertices; Scale 100 reaches the paper's 3M
// vertices / ~58M edges.
func (s *Suite) ScaleCommunity() (*synth.Dataset, error) {
	return s.generate(&s.scale, "scale", nil, func() (*synth.Dataset, error) {
		cfg := synth.DefaultScaleConfig()
		cfg.NumVertices = int64(s.scaleInt(int(cfg.NumVertices), 1500))
		cfg.NumCommunities = s.scaleInt(cfg.NumCommunities, 20)
		cfg.Seed = s.opts.Seed + 5
		ds, err := synth.GenerateScale("Scale", cfg, synth.ScaleOptions{
			Recorder: s.opts.Recorder,
		})
		if err != nil {
			return nil, fmt.Errorf("generate scale data set: %w", err)
		}
		return ds, nil
	})
}

// DatasetNames returns the registry names accepted by DatasetByName, in
// stable presentation order: the four Table III group data sets followed
// by the Table II BFS-crawl graph.
func DatasetNames() []string {
	return []string{"gplus", "twitter", "livejournal", "orkut", "crawl"}
}

// ErrUnknownDataset is returned by DatasetByName for names outside
// DatasetNames.
var ErrUnknownDataset = errors.New("core: unknown dataset")

// DatasetByName resolves a registry name to the memoized data set,
// generating it on first use. This is the lookup surface long-lived
// callers (the serve layer) use to share one Suite across requests.
func (s *Suite) DatasetByName(name string) (*synth.Dataset, error) {
	return s.dataset(name, nil)
}

// dataset is DatasetByName with the generate span placed under parent.
// Each registry data set has its own cache and draws from its own seed
// (Seed, Seed+1, …, Seed+4 in registry order), so what it generates does
// not depend on which other data sets exist yet or are being generated.
func (s *Suite) dataset(name string, parent *obs.Span) (*synth.Dataset, error) {
	switch name {
	case "gplus":
		return s.generate(&s.gplus, name, parent, s.generateGPlus)
	case "twitter":
		return s.generate(&s.twitter, name, parent, s.generateTwitter)
	case "livejournal":
		return s.generate(&s.lj, name, parent, s.generateLiveJournal)
	case "orkut":
		return s.generate(&s.orkut, name, parent, s.generateOrkut)
	case "crawl":
		return s.generate(&s.crawl, name, parent, s.generateCrawl)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
}

// Warm generates every registry data set, fanning the five generations
// out with par.For over GOMAXPROCS under one "warm" span; their
// "generate" spans are its children and overlap in time. The data sets
// equal those of serial accessor calls whatever the scheduling, since
// each is generated once from its own seed. With one worker the
// generations run in registry order on the caller's goroutine, exactly
// as serial calls would. Warm returns the error of the first data set in
// registry order that failed.
func (s *Suite) Warm() error {
	names := DatasetNames()
	sp := s.opts.Recorder.StartSpan("warm")
	defer sp.End()
	errs := make([]error, len(names))
	par.For(len(names), 0, func(_, i int) {
		_, errs[i] = s.dataset(names[i], sp)
	})
	for i, err := range errs {
		if err != nil {
			err = fmt.Errorf("warm %s: %w", names[i], err)
			sp.Fail(err)
			return err
		}
	}
	return nil
}

// AllGroupDatasets returns the four Table III data sets in paper order.
func (s *Suite) AllGroupDatasets() ([]*synth.Dataset, error) {
	gp, err := s.GPlus()
	if err != nil {
		return nil, err
	}
	tw, err := s.Twitter()
	if err != nil {
		return nil, err
	}
	lj, err := s.LiveJournal()
	if err != nil {
		return nil, err
	}
	ok, err := s.Orkut()
	if err != nil {
		return nil, err
	}
	return []*synth.Dataset{gp, tw, lj, ok}, nil
}

// profileOptions derives ProfileOptions from the suite options.
func (s *Suite) profileOptions() ProfileOptions {
	return ProfileOptions{
		DistanceSources:   s.opts.DistanceSources,
		ClusteringSamples: s.opts.ClusteringSamples,
	}
}

// profileStream derives a stable RNG stream label from a data-set name,
// so a memoized profile is deterministic no matter which experiment
// triggers it first.
func profileStream(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte("profile/" + name))
	return int64(h.Sum64() >> 1)
}

// Profile returns the memoized CharacterizeGraph result for the data
// set. Table II and Fig. 4 share one profile per graph instead of
// re-running the BFS sweeps and clustering samples.
func (s *Suite) Profile(ds *synth.Dataset) (*GraphProfile, error) {
	s.mu.Lock()
	if s.profiles == nil {
		s.profiles = make(map[*synth.Dataset]*profileCache)
	}
	c := s.profiles[ds]
	if c == nil {
		c = &profileCache{}
		s.profiles[ds] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		defer s.stageSpan("profile", ds.Name, nil).End()
		c.profile, c.err = characterizeGraph(ds.Name, ds.Graph, s.profileOptions(), s.RNG(profileStream(ds.Name)),
			func() (*powerlaw.FitResult, error) { return s.degreeFit(ds.Graph) })
	})
	return c.profile, c.err
}

// degreeFit returns the memoized fitInDegree(g, 0) result. The profile
// (Table II), Fig. 3, its CSV export and the scorecard share one CSN fit
// per graph instead of refitting the same degree sequence.
func (s *Suite) degreeFit(g *graph.Graph) (*powerlaw.FitResult, error) {
	s.mu.Lock()
	if s.fits == nil {
		s.fits = make(map[*graph.Graph]*fitCache)
	}
	c := s.fits[g]
	if c == nil {
		c = &fitCache{}
		s.fits[g] = c
	}
	s.mu.Unlock()
	c.once.Do(func() { c.fit, c.err = fitInDegree(g, 0) })
	return c.fit, c.err
}

// fitDegrees is FitDegrees(g, 0) over the memoized fit.
func (s *Suite) fitDegrees(g *graph.Graph) (*DegreeFitExperiment, error) {
	fit, err := s.degreeFit(g)
	if err != nil {
		return nil, fmt.Errorf("degree fit: %w", err)
	}
	return newDegreeFitExperiment(g, fit)
}

// ScoreContext returns the memoized analytic scoring context for the
// graph. The context's lazy caches (median degree, degree tables) are
// synchronized, so concurrent experiments can score through it directly.
// Experiments that need an empirical null model must build their own
// context instead of mutating this shared one.
func (s *Suite) ScoreContext(g *graph.Graph) *score.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.contexts == nil {
		s.contexts = make(map[*graph.Graph]*score.Context)
	}
	ctx := s.contexts[g]
	if ctx == nil {
		ctx = score.NewContext(g)
		ctx.Recorder = s.opts.Recorder
		s.contexts[g] = ctx
	}
	return ctx
}

// NullArena returns the memoized overlay arena pooling null-model sample
// buffers for the graph. Experiments that build empirical estimators draw
// overlays from here and return them on estimator Close, so repeated
// null-model sampling against the same graph is allocation-free after
// warm-up.
func (s *Suite) NullArena(g *graph.Graph) *graph.OverlayArena {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arenas == nil {
		s.arenas = make(map[*graph.Graph]*graph.OverlayArena)
	}
	a := s.arenas[g]
	if a == nil {
		a = graph.NewOverlayArena(g)
		a.Instrument(
			s.opts.Recorder.Counter("graph.arena.hits"),
			s.opts.Recorder.Counter("graph.arena.misses"))
		s.arenas[g] = a
	}
	return a
}

// UndirectedProjection returns the memoized undirected projection of the
// data set's graph (Section IV-B). The projection preserves the vertex
// set and external IDs, so groups carry over unchanged.
func (s *Suite) UndirectedProjection(ds *synth.Dataset) (*graph.Graph, error) {
	s.mu.Lock()
	if s.projections == nil {
		s.projections = make(map[*synth.Dataset]*projectionCache)
	}
	c := s.projections[ds]
	if c == nil {
		c = &projectionCache{}
		s.projections[ds] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		c.g, c.err = graph.Undirected(ds.Graph)
		if c.err != nil {
			c.err = fmt.Errorf("projection %s: %w", ds.Name, c.err)
		}
	})
	return c.g, c.err
}
