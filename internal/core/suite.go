package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
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

// memo is a once-cell: the value and error of one computation, made by
// the first caller and shared by every later one.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

// get runs f on the first call and returns its result to every call.
func (m *memo[T]) get(f func() (T, error)) (T, error) {
	m.once.Do(func() { m.val, m.err = f() })
	return m.val, m.err
}

// graphState is the derived state a Suite keeps for one graph. ctx is
// made with the record and arena by the first NullArena call, both
// under the suite mutex; the memos run their computation outside it.
type graphState struct {
	ctx   *score.Context
	arena *graph.OverlayArena

	profile      memo[*GraphProfile]
	fit          memo[*powerlaw.FitResult]
	projection   memo[*graph.Graph]
	directedness memo[*DirectednessResult]
}

// Suite generates and caches the synthetic data sets shared by the
// experiments, and owns every result derived from them that more than
// one reader uses. Per graph it keeps one record: the graph profile
// (Table II / Fig. 4), the in-degree fit (Table II / Fig. 3 /
// scorecard), the analytic scoring context, the null-model arena, the
// undirected projection and the directedness result (Section IV-B).
// Per suite it keeps the Fig. 2 overlap analysis and the Fig. 5 and
// Fig. 6 results, so the report, its CSV series and the scorecard read
// one draw of each figure.
//
// A Suite is safe for concurrent use: every lazy result is a once-cell
// (or created under the suite mutex), so concurrent experiments
// generate each data set and each derived result exactly once.
type Suite struct {
	opts SuiteOptions

	datasets [5]memo[*synth.Dataset] // in DatasetNames order
	scale    memo[*synth.Dataset]

	overlap memo[*OverlapResult]
	fig5    memo[*Fig5Result]
	fig6    memo[*Fig6Result]

	mu     sync.Mutex
	graphs map[*graph.Graph]*graphState
}

// NewSuite creates a Suite; data sets are generated lazily.
func NewSuite(opts SuiteOptions) *Suite {
	return &Suite{opts: opts.withDefaults(), graphs: make(map[*graph.Graph]*graphState)}
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
func (s *Suite) generate(c *memo[*synth.Dataset], name string, parent *obs.Span, gen func() (*synth.Dataset, error)) (*synth.Dataset, error) {
	return c.get(func() (*synth.Dataset, error) {
		defer s.stageSpan("generate", name, parent).End()
		return gen()
	})
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
	i := slices.Index(DatasetNames(), name)
	if i < 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	gen := [...]func() (*synth.Dataset, error){
		s.generateGPlus, s.generateTwitter, s.generateLiveJournal, s.generateOrkut, s.generateCrawl,
	}[i]
	return s.generate(&s.datasets[i], name, parent, gen)
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
	names := DatasetNames()[:4]
	out := make([]*synth.Dataset, len(names))
	for i, name := range names {
		ds, err := s.dataset(name, nil)
		if err != nil {
			return nil, err
		}
		out[i] = ds
	}
	return out, nil
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

// state returns g's record, creating it on first use.
func (s *Suite) state(g *graph.Graph) *graphState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.graphs[g]
	if st == nil {
		st = &graphState{ctx: score.NewContext(g)}
		st.ctx.Recorder = s.opts.Recorder
		s.graphs[g] = st
	}
	return st
}

// Profile returns the memoized CharacterizeGraph result for the data
// set's graph. Table II, Fig. 4, its CSV series and the scorecard share
// one profile per graph instead of re-running the BFS sweeps and
// clustering samples.
func (s *Suite) Profile(ds *synth.Dataset) (*GraphProfile, error) {
	return s.state(ds.Graph).profile.get(func() (*GraphProfile, error) {
		defer s.stageSpan("profile", ds.Name, nil).End()
		return characterizeGraph(ds.Name, ds.Graph, s.profileOptions(), s.RNG(profileStream(ds.Name)),
			func() (*powerlaw.FitResult, error) { return s.degreeFit(ds.Graph) })
	})
}

// degreeFit returns the memoized fitInDegree(g, 0) result. The profile
// (Table II), Fig. 3, its CSV export and the scorecard share one CSN fit
// per graph instead of refitting the same degree sequence.
func (s *Suite) degreeFit(g *graph.Graph) (*powerlaw.FitResult, error) {
	return s.state(g).fit.get(func() (*powerlaw.FitResult, error) { return fitInDegree(g, 0) })
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
	return s.state(g).ctx
}

// NullArena returns the memoized overlay arena pooling null-model sample
// buffers for the graph. Experiments that build empirical estimators draw
// overlays from here and return them on estimator Close, so repeated
// null-model sampling against the same graph is allocation-free after
// warm-up.
func (s *Suite) NullArena(g *graph.Graph) *graph.OverlayArena {
	st := s.state(g)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.arena == nil {
		st.arena = graph.NewOverlayArena(g)
		st.arena.Instrument(
			s.opts.Recorder.Counter("graph.arena.hits"),
			s.opts.Recorder.Counter("graph.arena.misses"))
	}
	return st.arena
}

// UndirectedProjection returns the memoized undirected projection of the
// data set's graph (Section IV-B). The projection preserves the vertex
// set and external IDs, so groups carry over unchanged.
func (s *Suite) UndirectedProjection(ds *synth.Dataset) (*graph.Graph, error) {
	return s.state(ds.Graph).projection.get(func() (*graph.Graph, error) {
		und, err := graph.Undirected(ds.Graph)
		if err != nil {
			return nil, fmt.Errorf("projection %s: %w", ds.Name, err)
		}
		return und, nil
	})
}

// directedness returns the memoized Section IV-B deviation of the data
// set, scored through the memoized projection and contexts. The
// directedness section and the scorecard read it.
func (s *Suite) directedness(ds *synth.Dataset) (*DirectednessResult, error) {
	return s.state(ds.Graph).directedness.get(func() (*DirectednessResult, error) {
		und, err := s.UndirectedProjection(ds)
		if err != nil {
			return nil, err
		}
		return directednessWith(ds, und, s.ScoreContext(ds.Graph), s.ScoreContext(und), nil)
	})
}

// overlapResult returns the memoized Fig. 2 overlap analysis of the
// Google+ data set. The fig2 section, fig2.csv and the scorecard read it.
func (s *Suite) overlapResult() (*OverlapResult, error) {
	return s.overlap.get(func() (*OverlapResult, error) {
		gp, err := s.GPlus()
		if err != nil {
			return nil, err
		}
		return AnalyzeOverlap(gp)
	})
}

// fig5Result returns the memoized Fig. 5 draw: circles against
// size-matched random-walk sets on Google+, with the suite's null-model
// setting. The fig5 section, fig5.csv and the scorecard read it.
func (s *Suite) fig5Result() (*Fig5Result, error) {
	return s.fig5.get(func() (*Fig5Result, error) {
		gp, err := s.GPlus()
		if err != nil {
			return nil, err
		}
		return CirclesVsRandom(gp, Fig5Options{
			NullModelSamples: s.opts.NullModelSamples,
			Context:          s.ScoreContext(gp.Graph),
			NullArena:        s.NullArena(gp.Graph),
			Recorder:         s.Recorder(),
		}, s.RNG(13))
	})
}

// fig6Result returns the memoized Fig. 6 comparison of the four group
// data sets under the paper's functions. The fig6 section, fig6.csv and
// the scorecard read it.
func (s *Suite) fig6Result() (*Fig6Result, error) {
	return s.fig6.get(func() (*Fig6Result, error) {
		datasets, err := s.AllGroupDatasets()
		if err != nil {
			return nil, err
		}
		return crossNetworkWith(datasets, nil, s.ScoreContext)
	})
}
