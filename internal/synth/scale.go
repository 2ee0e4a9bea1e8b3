package synth

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/score"
)

// ScaleConfig parameterizes the paper-scale community generator: the
// same affiliation-graph family as GenerateAGM (vertices join weighted
// communities, communities wire internally, an epsilon background graph
// connects everything) restructured so generation shards across workers
// and streams straight into graph.StreamBuilder. Every random draw is
// keyed to a stable unit — a vertex, a community, or a fixed 2^16-vertex
// background block — never to a shard or worker boundary, so the output
// graph is bit-identical for a given Seed regardless of Shards and of
// how many workers execute them.
type ScaleConfig struct {
	// NumVertices is the number of users (external IDs 0..NumVertices-1).
	NumVertices int64
	// NumCommunities is the number of planted communities.
	NumCommunities int
	// MinCommunitySize and MaxCommunitySize bound the power-law
	// affiliation weights. Realized community sizes scale with
	// NumVertices·MembershipsPerVertex/Σweights, so these set the
	// relative size spread, not absolute member counts.
	MinCommunitySize, MaxCommunitySize int
	// SizeExponent is the power-law exponent of the affiliation weights.
	SizeExponent float64
	// IntraDegree is the mean number of links a member creates inside
	// each of its communities.
	IntraDegree float64
	// CohesionSigma is the log-normal sigma of the per-community quality
	// multiplier on IntraDegree (see AGMConfig.CohesionSigma).
	CohesionSigma float64
	// MembershipsPerVertex is the mean number of communities a vertex
	// joins; must be >= 1 (every vertex joins at least one).
	MembershipsPerVertex float64
	// BackgroundDegree is the mean number of random background links per
	// vertex.
	BackgroundDegree float64
	// Seed drives every random stream.
	Seed int64
	// Shards is the scheduling granularity: work units (communities and
	// background blocks) are dealt round-robin into this many batches.
	// It affects only scheduling, never output. 0 means one shard per
	// worker.
	Shards int
}

// ScaleOptions holds execution knobs that must never influence the
// generated dataset, only how fast and with how much memory it is built.
type ScaleOptions struct {
	// Workers bounds generation parallelism; 0 means GOMAXPROCS.
	Workers int
	// Recorder receives generation counters and timers; nil disables.
	Recorder *obs.Recorder
}

// DefaultScaleConfig returns the baseline configuration: LiveJournal-like
// structure at 30k vertices (~600k edges). Multiply NumVertices and
// NumCommunities by 100 for the paper-scale 3M-vertex/~58M-edge run.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		NumVertices:          30000,
		NumCommunities:       300,
		MinCommunitySize:     8,
		MaxCommunitySize:     400,
		SizeExponent:         2.1,
		IntraDegree:          8,
		CohesionSigma:        1.0,
		MembershipsPerVertex: 2.4,
		BackgroundDegree:     2,
		Seed:                 6,
	}
}

// Validate checks the configuration for consistency.
func (c ScaleConfig) Validate() error {
	switch {
	case c.NumVertices < 10:
		return fmt.Errorf("%w: NumVertices %d < 10", errBadConfig, c.NumVertices)
	case c.NumVertices > math.MaxInt32:
		return fmt.Errorf("%w: NumVertices %d exceeds the int32 vertex space", errBadConfig, c.NumVertices)
	case c.NumCommunities < 1:
		return fmt.Errorf("%w: NumCommunities %d < 1", errBadConfig, c.NumCommunities)
	case c.MinCommunitySize < 3:
		return fmt.Errorf("%w: MinCommunitySize %d < 3", errBadConfig, c.MinCommunitySize)
	case c.MaxCommunitySize < c.MinCommunitySize:
		return fmt.Errorf("%w: MaxCommunitySize %d < MinCommunitySize %d",
			errBadConfig, c.MaxCommunitySize, c.MinCommunitySize)
	case c.SizeExponent <= 1:
		return fmt.Errorf("%w: SizeExponent %v <= 1", errBadConfig, c.SizeExponent)
	case c.MembershipsPerVertex < 1:
		return fmt.Errorf("%w: MembershipsPerVertex %v < 1", errBadConfig, c.MembershipsPerVertex)
	case c.IntraDegree < 0:
		return fmt.Errorf("%w: IntraDegree %v < 0", errBadConfig, c.IntraDegree)
	case c.BackgroundDegree < 0:
		return fmt.Errorf("%w: BackgroundDegree %v < 0", errBadConfig, c.BackgroundDegree)
	case c.Shards < 0:
		return fmt.Errorf("%w: Shards %d < 0", errBadConfig, c.Shards)
	}
	return nil
}

// Random-stream tags: each generation phase draws from its own family of
// splitmix64 streams so phases never share state.
const (
	streamMember = 0x6d656d6265720001 // per-vertex membership draws
	streamIntra  = 0x696e747261000002 // per-community intra-edge RNG seeds
	streamBg     = 0x6267626c6b000003 // per-background-block RNG seeds
)

// bgBlockShift fixes background-graph work units at 2^16 vertices. The
// block grid depends only on NumVertices, so background randomness is
// independent of Shards and Workers by construction.
const bgBlockShift = 16

// maxMemberships caps a single vertex's community memberships; the
// Poisson tail beyond it is astronomically unlikely at sane configs.
const maxMemberships = 64

// splitMix is a splitmix64 stream: cheap enough to seed per vertex
// (rand.NewSource's 607-round warm-up is ~1000x more expensive, which
// rules it out for 3M per-vertex streams).
type splitMix struct{ s uint64 }

func (s *splitMix) next() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0,1) with 53 random bits.
func (s *splitMix) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// mix64 is the splitmix64 finalizer, used to disperse stream keys.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mixSeed derives the RNG state for one (seed, stream, unit) triple.
func mixSeed(seed int64, stream uint64, unit int64) uint64 {
	return mix64(mix64(uint64(seed)^stream) + uint64(unit)*0x9e3779b97f4a7c15)
}

// poissonSmall draws Poisson(mean) by Knuth's product method on a
// splitmix stream; only used for the small per-vertex membership means.
func poissonSmall(sm *splitMix, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= sm.float64()
		if p <= limit {
			return k
		}
		k++
		if k >= maxMemberships {
			return k
		}
	}
}

// scaleGen carries the immutable phase-A outputs every shard reads.
type scaleGen struct {
	cfg      ScaleConfig
	shards   int
	cohesion []float64
	picker   *weightedPicker
	memOff   []int64
	memAdj   []graph.VID
}

// GenerateScale builds an undirected paper-scale community data set
// through graph.StreamBuilder's dense mode: peak memory is the final CSR
// plus O(n) bookkeeping, never an O(m) raw-edge list. The name argument
// labels the data set in reports. Output depends only on cfg (Shards
// included solely for validation symmetry — it never changes the graph);
// ScaleOptions change speed and memory, not bytes.
func GenerateScale(name string, cfg ScaleConfig, opts ScaleOptions) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = workers
	}
	rec := opts.Recorder

	// Phase A: community parameters, drawn serially from the root seed
	// (O(NumCommunities), cheap). Affiliation weights follow the bounded
	// power law; cohesion is the log-normal quality multiplier.
	paramRNG := rand.New(rand.NewSource(cfg.Seed))
	weights := make([]float64, cfg.NumCommunities)
	cohesion := make([]float64, cfg.NumCommunities)
	for c := range weights {
		weights[c] = float64(boundedPowerLawInt(paramRNG, cfg.SizeExponent, cfg.MinCommunitySize, cfg.MaxCommunitySize))
		cohesion[c] = math.Exp(paramRNG.NormFloat64()*cfg.CohesionSigma - cfg.CohesionSigma*cfg.CohesionSigma/2)
	}
	gen := &scaleGen{
		cfg:      cfg,
		shards:   shards,
		cohesion: cohesion,
		picker:   newWeightedPicker(weights),
	}

	// Phase A2: membership CSR by the same two-pass counting trick the
	// edge builder uses. Memberships are a pure function of (Seed,
	// vertex), so both passes recompute them and any vertex partition
	// across workers yields the same table.
	stopMembers := rec.Timer("synth.scale.members").Stopwatch()
	gen.buildMemberships(workers)
	stopMembers()

	// Phase B+C: stream community and background edges into the builder.
	// Generation is deterministic, so the fill pass simply regenerates
	// the edges (the stream builder's replay protocol).
	sb, err := graph.NewStreamBuilder(false, graph.StreamOptions{
		DenseVertices: cfg.NumVertices,
		Workers:       workers,
	})
	if err != nil {
		return nil, fmt.Errorf("scale generator: %w", err)
	}
	sb.Instrument(
		rec.Counter("synth.scale.pass1.edges"),
		rec.Counter("synth.scale.pass2.edges"),
		rec.Gauge("synth.scale.builder.peak.bytes"),
	)
	pass := func(tag string) {
		stop := rec.Timer("synth.scale." + tag).Stopwatch()
		defer stop()
		gen.streamAll(workers, sb.AddEdge)
	}
	pass("pass1")
	if err := sb.Rewind(); err != nil {
		return nil, fmt.Errorf("scale generator: %w", err)
	}
	pass("pass2")

	stopFinish := rec.Timer("synth.scale.finish").Stopwatch()
	g, err := sb.Finish()
	stopFinish()
	if err != nil {
		return nil, fmt.Errorf("scale generator: %w", err)
	}

	// Communities with at least 3 realized members become groups, the
	// same floor as GenerateAGM. Members are already dense sorted VIDs.
	groups := make([]score.Group, 0, cfg.NumCommunities)
	for c := 0; c < cfg.NumCommunities; c++ {
		mem := gen.memAdj[gen.memOff[c]:gen.memOff[c+1]]
		if len(mem) >= 3 {
			groups = append(groups, score.Group{Name: fmt.Sprintf("com%06d", c), Members: mem})
		}
	}
	return &Dataset{
		Name:   name,
		Graph:  g,
		Groups: groups,
		Kind:   Communities,
	}, nil
}

// memberships recomputes vertex v's community memberships into buf:
// 1 + Poisson(MembershipsPerVertex−1) weighted picks, duplicates
// skipped. Pure in (Seed, v).
func (gen *scaleGen) memberships(v int64, buf []int) []int {
	sm := splitMix{s: mixSeed(gen.cfg.Seed, streamMember, v)}
	k := 1 + poissonSmall(&sm, gen.cfg.MembershipsPerVertex-1)
	if k > maxMemberships {
		k = maxMemberships
	}
	out := buf[:0]
	for j := 0; j < k; j++ {
		c := gen.picker.pickAt(sm.float64())
		if slices.Contains(out, c) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// buildMemberships fills the community->members CSR with two parallel
// passes over the vertex range plus a parallel per-community sort.
func (gen *scaleGen) buildMemberships(workers int) {
	numC := gen.cfg.NumCommunities
	cnt := make([]int64, numC)
	gen.forEachVertexRange(workers, func(lo, hi int64) {
		var buf [maxMemberships]int
		for v := lo; v < hi; v++ {
			for _, c := range gen.memberships(v, buf[:]) {
				atomic.AddInt64(&cnt[c], 1)
			}
		}
	})
	gen.memOff = make([]int64, numC+1)
	for c, k := range cnt {
		gen.memOff[c+1] = gen.memOff[c] + k
	}
	gen.memAdj = make([]graph.VID, gen.memOff[numC])
	next := make([]int64, numC)
	copy(next, gen.memOff[:numC])
	gen.forEachVertexRange(workers, func(lo, hi int64) {
		var buf [maxMemberships]int
		for v := lo; v < hi; v++ {
			for _, c := range gen.memberships(v, buf[:]) {
				pos := atomic.AddInt64(&next[c], 1) - 1
				gen.memAdj[pos] = graph.VID(v)
			}
		}
	})
	// Sort each community's members so downstream iteration order (and
	// therefore phase B's edge stream) is schedule-independent.
	var wg sync.WaitGroup
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(cursor.Add(1) - 1)
				if c >= numC {
					return
				}
				slices.Sort(gen.memAdj[gen.memOff[c]:gen.memOff[c+1]])
			}
		}()
	}
	wg.Wait()
}

// forEachVertexRange fans fn over contiguous vertex chunks.
func (gen *scaleGen) forEachVertexRange(workers int, fn func(lo, hi int64)) {
	n := gen.cfg.NumVertices
	const chunk = int64(1) << bgBlockShift
	var wg sync.WaitGroup
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := cursor.Add(chunk) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// streamAll runs every shard through a worker pool, emitting each edge
// to emit. The edges each shard emits are fixed by the config, so which
// worker runs which shard never matters.
func (gen *scaleGen) streamAll(workers int, emit func(u, v int64)) {
	shardCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range shardCh {
				gen.emitShard(s, emit)
			}
		}()
	}
	for s := 0; s < gen.shards; s++ {
		shardCh <- s
	}
	close(shardCh)
	wg.Wait()
}

// emitShard generates shard s's work units: every community and every
// background block dealt to it round-robin.
func (gen *scaleGen) emitShard(s int, emit func(u, v int64)) {
	for c := s; c < gen.cfg.NumCommunities; c += gen.shards {
		gen.emitCommunity(c, emit)
	}
	numBlocks := int((gen.cfg.NumVertices + (1 << bgBlockShift) - 1) >> bgBlockShift)
	for b := s; b < numBlocks; b += gen.shards {
		gen.emitBlock(b, emit)
	}
}

// emitCommunity wires community c exactly like GenerateAGM's intra loop:
// each member draws Poisson(IntraDegree·cohesion) links to random fellow
// members. The RNG is seeded from (Seed, community), and members are
// iterated in sorted order, so the emitted multiset is a pure function
// of the config.
func (gen *scaleGen) emitCommunity(c int, emit func(u, v int64)) {
	members := gen.memAdj[gen.memOff[c]:gen.memOff[c+1]]
	if len(members) < 2 {
		return
	}
	rng := rand.New(rand.NewSource(int64(mixSeed(gen.cfg.Seed, streamIntra, int64(c)))))
	mean := gen.cfg.IntraDegree * gen.cohesion[c]
	for _, u := range members {
		links := poissonApprox(rng, mean)
		for k := 0; k < links; k++ {
			v := members[rng.Intn(len(members))]
			if v != u {
				emit(int64(u), int64(v))
			}
		}
	}
}

// emitBlock generates the epsilon background edges whose lower endpoint
// falls in block b: each vertex draws Poisson(BackgroundDegree/2) links
// to uniform random targets. Blocks are fixed 2^16-vertex ranges, so the
// stream is independent of Shards.
func (gen *scaleGen) emitBlock(b int, emit func(u, v int64)) {
	n := gen.cfg.NumVertices
	lo := int64(b) << bgBlockShift
	hi := lo + (1 << bgBlockShift)
	if hi > n {
		hi = n
	}
	rng := rand.New(rand.NewSource(int64(mixSeed(gen.cfg.Seed, streamBg, int64(b)))))
	mean := gen.cfg.BackgroundDegree / 2
	for u := lo; u < hi; u++ {
		links := poissonApprox(rng, mean)
		for k := 0; k < links; k++ {
			v := rng.Int63n(n)
			if v != u {
				emit(u, v)
			}
		}
	}
}

// pickAt resolves a uniform [0,1) draw to a weighted index; the
// splitmix-driven counterpart of pick.
func (p *weightedPicker) pickAt(x float64) int {
	total := p.cum[len(p.cum)-1]
	i := sort.SearchFloat64s(p.cum, x*total)
	if i >= len(p.cum) {
		i = len(p.cum) - 1
	}
	return i
}
