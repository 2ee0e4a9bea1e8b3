// Package nullmodel implements the Newman–Girvan null model used by the
// Modularity scoring function (Eq. 4): random graphs with the same degree
// sequence as the original graph. Randomization follows the approach of
// Viger and Latapy — start from a valid realization and apply
// degree-preserving double-edge swaps, optionally preserving connectivity
// with windowed rollback — plus a Havel–Hakimi constructor for building a
// realization directly from a degree sequence.
package nullmodel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/obs"
)

var (
	// ErrNoRNG is returned when a nil random source is supplied.
	ErrNoRNG = errors.New("nullmodel: nil RNG")
	// ErrNotGraphical is returned by FromDegreeSequence when no simple
	// graph realizes the sequence.
	ErrNotGraphical = errors.New("nullmodel: degree sequence is not graphical")
)

// rewirer holds a mutable arc list with O(1) duplicate detection for the
// swap Markov chain. Its storage (edge slice, presence map) is reusable
// across samples via resetFrom, so pooled callers pay zero steady-state
// allocation per sample.
type rewirer struct {
	directed bool
	n        int
	edges    []graph.Edge
	present  map[uint64]struct{}
}

func pack(u, v graph.VID) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// resetFrom re-initializes r to a copy of the template edge list, reusing
// r's edge buffer and presence map when their capacity allows.
func (r *rewirer) resetFrom(directed bool, n int, template []graph.Edge) {
	r.directed = directed
	r.n = n
	r.edges = append(r.edges[:0], template...)
	if r.present == nil {
		r.present = make(map[uint64]struct{}, len(template))
	} else {
		clear(r.present)
	}
	for _, e := range r.edges {
		r.present[r.key(e.From, e.To)] = struct{}{}
	}
}

func newRewirer(g *graph.Graph) *rewirer {
	r := &rewirer{}
	r.resetFrom(g.Directed(), g.NumVertices(), g.EdgeList())
	return r
}

// key canonicalizes undirected edges so {u,v} and {v,u} collide.
func (r *rewirer) key(u, v graph.VID) uint64 {
	if !r.directed && u > v {
		u, v = v, u
	}
	return pack(u, v)
}

func (r *rewirer) has(u, v graph.VID) bool {
	_, ok := r.present[r.key(u, v)]
	return ok
}

// swapRecord remembers one applied swap so a window can be rolled back.
type swapRecord struct {
	i, j       int
	oldI, oldJ graph.Edge
}

// trySwap attempts one double-edge swap on edge indices i and j, returning
// the record if the swap was applied. Directed swap:
// (a→b),(c→d) ⇒ (a→d),(c→b). Undirected swap: {a,b},{c,d} ⇒ {a,c},{b,d}
// or {a,d},{b,c} chosen at random. Swaps creating self-loops or duplicate
// edges are rejected.
func (r *rewirer) trySwap(i, j int, rng *rand.Rand) (swapRecord, bool) {
	if i == j {
		return swapRecord{}, false
	}
	e1, e2 := r.edges[i], r.edges[j]
	var n1, n2 graph.Edge
	if r.directed {
		n1 = graph.Edge{From: e1.From, To: e2.To}
		n2 = graph.Edge{From: e2.From, To: e1.To}
	} else {
		if rng.Intn(2) == 0 {
			n1 = graph.Edge{From: e1.From, To: e2.From}
			n2 = graph.Edge{From: e1.To, To: e2.To}
		} else {
			n1 = graph.Edge{From: e1.From, To: e2.To}
			n2 = graph.Edge{From: e1.To, To: e2.From}
		}
	}
	if n1.From == n1.To || n2.From == n2.To {
		return swapRecord{}, false
	}
	k1, k2 := r.key(n1.From, n1.To), r.key(n2.From, n2.To)
	if k1 == k2 {
		return swapRecord{}, false
	}
	if _, dup := r.present[k1]; dup {
		return swapRecord{}, false
	}
	if _, dup := r.present[k2]; dup {
		return swapRecord{}, false
	}
	delete(r.present, r.key(e1.From, e1.To))
	delete(r.present, r.key(e2.From, e2.To))
	r.present[k1] = struct{}{}
	r.present[k2] = struct{}{}
	r.edges[i], r.edges[j] = n1, n2
	return swapRecord{i: i, j: j, oldI: e1, oldJ: e2}, true
}

// undo reverses a sequence of applied swaps (most recent first).
func (r *rewirer) undo(records []swapRecord) {
	for k := len(records) - 1; k >= 0; k-- {
		rec := records[k]
		cur1, cur2 := r.edges[rec.i], r.edges[rec.j]
		delete(r.present, r.key(cur1.From, cur1.To))
		delete(r.present, r.key(cur2.From, cur2.To))
		r.present[r.key(rec.oldI.From, rec.oldI.To)] = struct{}{}
		r.present[r.key(rec.oldJ.From, rec.oldJ.To)] = struct{}{}
		r.edges[rec.i], r.edges[rec.j] = rec.oldI, rec.oldJ
	}
}

// build materializes the current edge list as an immutable graph with the
// same external IDs as the source graph.
func (r *rewirer) build(src *graph.Graph) (*graph.Graph, error) {
	b := graph.NewBuilder(r.directed)
	for v := 0; v < src.NumVertices(); v++ {
		b.AddVertex(src.ExternalID(graph.VID(v)))
	}
	for _, e := range r.edges {
		b.AddEdge(src.ExternalID(e.From), src.ExternalID(e.To))
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("materialize rewired graph: %w", err)
	}
	return g, nil
}

// mix runs the plain (connectivity-agnostic) swap chain: swapsPerEdge·m
// attempted double-edge swaps, returning how many were attempted and how
// many were applied (the rest were rejected as self-loops, duplicates or
// degenerate pairs). The RNG draw sequence is the contract the
// overlay-based estimator's determinism tests rely on; change it only
// with a migration plan for recorded expectations.
func (r *rewirer) mix(swapsPerEdge float64, rng *rand.Rand) (attempts, accepted int) {
	m := len(r.edges)
	if m < 2 {
		return 0, 0
	}
	attempts = int(swapsPerEdge * float64(m))
	for k := 0; k < attempts; k++ {
		if _, ok := r.trySwap(rng.Intn(m), rng.Intn(m), rng); ok {
			accepted++
		}
	}
	return attempts, accepted
}

// Rewire returns a randomized copy of g with the identical per-vertex
// degree sequence, produced by swapsPerEdge·m attempted double-edge swaps.
// swapsPerEdge around 5–10 is sufficient to decorrelate from the original
// topology on social graphs.
func Rewire(g *graph.Graph, swapsPerEdge float64, rng *rand.Rand) (*graph.Graph, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	r := newRewirer(g)
	r.mix(swapsPerEdge, rng)
	return r.build(g)
}

// RewireConnected behaves like Rewire but preserves weak connectivity via
// the Viger–Latapy windowed strategy: swaps are applied in windows, and a
// window leaving the graph disconnected is rolled back wholesale. g must
// be connected.
func RewireConnected(g *graph.Graph, swapsPerEdge float64, rng *rand.Rand) (*graph.Graph, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	if !graphalgo.IsConnected(g) {
		return nil, errors.New("nullmodel: RewireConnected requires a connected graph")
	}
	r := newRewirer(g)
	m := len(r.edges)
	if m < 2 {
		return r.build(g)
	}
	attempts := int(swapsPerEdge * float64(m))
	window := m / 10
	if window < 8 {
		window = 8
	}
	records := make([]swapRecord, 0, window)
	for done := 0; done < attempts; {
		records = records[:0]
		for k := 0; k < window && done < attempts; k++ {
			done++
			if rec, ok := r.trySwap(rng.Intn(m), rng.Intn(m), rng); ok {
				records = append(records, rec)
			}
		}
		if len(records) == 0 {
			continue
		}
		if !r.connected() {
			r.undo(records)
		}
	}
	return r.build(g)
}

// connected checks weak connectivity of the current edge list with a
// union-find pass, avoiding a full graph rebuild per window.
func (r *rewirer) connected() bool {
	parent := make([]int32, r.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	comps := r.n
	for _, e := range r.edges {
		a, b := find(int32(e.From)), find(int32(e.To))
		if a != b {
			parent[a] = b
			comps--
		}
	}
	return comps == 1
}

// FromDegreeSequence constructs a simple undirected graph realizing the
// degree sequence via Havel–Hakimi, then randomizes it with swapsPerEdge
// double-edge swaps. Vertices receive external IDs 0..n-1 matching the
// sequence positions.
func FromDegreeSequence(deg []int, swapsPerEdge float64, rng *rand.Rand) (*graph.Graph, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	base, err := havelHakimi(deg)
	if err != nil {
		return nil, err
	}
	return Rewire(base, swapsPerEdge, rng)
}

// havelHakimi deterministically realizes an undirected degree sequence or
// reports it non-graphical.
func havelHakimi(deg []int) (*graph.Graph, error) {
	type node struct {
		id  int
		rem int
	}
	nodes := make([]node, len(deg))
	var sum int
	for i, d := range deg {
		if d < 0 || d >= len(deg) {
			return nil, fmt.Errorf("%w: degree %d at position %d", ErrNotGraphical, d, i)
		}
		nodes[i] = node{id: i, rem: d}
		sum += d
	}
	if sum%2 != 0 {
		return nil, fmt.Errorf("%w: odd degree sum %d", ErrNotGraphical, sum)
	}

	b := graph.NewBuilder(false)
	for i := range deg {
		b.AddVertex(int64(i))
	}
	for {
		sort.Slice(nodes, func(i, j int) bool {
			if nodes[i].rem != nodes[j].rem {
				return nodes[i].rem > nodes[j].rem
			}
			return nodes[i].id < nodes[j].id
		})
		if nodes[0].rem == 0 {
			break
		}
		d := nodes[0].rem
		if d >= len(nodes) {
			return nil, fmt.Errorf("%w: residual degree %d too large", ErrNotGraphical, d)
		}
		nodes[0].rem = 0
		for k := 1; k <= d; k++ {
			if nodes[k].rem == 0 {
				return nil, fmt.Errorf("%w: ran out of attachable vertices", ErrNotGraphical)
			}
			nodes[k].rem--
			b.AddEdge(int64(nodes[0].id), int64(nodes[k].id))
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("havel-hakimi build: %w", err)
	}
	return g, nil
}

// sampleScratch is the reusable per-worker state for overlay sampling:
// the rewirer's edge buffer and presence map. Pooled globally — the
// buffers grow to fit whatever graph a worker touches and are reused
// across estimator calls, so steady-state sampling allocates nothing.
type sampleScratch struct {
	rw rewirer
}

var scratchPool = sync.Pool{New: func() any { return new(sampleScratch) }}

// Estimator estimates E(m_C) — the expected internal edge count of a
// vertex set under the degree-preserving null model — from Viger–Latapy
// rewire samples held as graph.Overlay values over the source graph.
// Because rewiring preserves every vertex's in- and out-degree, the
// samples share the source graph's interning tables and CSR offsets;
// each sample owns only its 2m adjacency entries.
//
// An Estimator is safe for concurrent use by multiple goroutines until
// Close is called. Close returns the overlays to the arena the estimator
// was built with; the estimator must not be used afterwards.
type Estimator struct {
	overlays []*graph.Overlay
	arena    *graph.OverlayArena
}

// EstimatorOptions configures NewEmpiricalEstimator, mirroring the
// options-first shape of core.SuiteOptions: zero values select
// documented defaults via withDefaults, so call sites name only what
// they change.
type EstimatorOptions struct {
	// Samples is the number of degree-preserving random samples; <= 0
	// selects 32.
	Samples int
	// SwapsPerEdge scales the Viger–Latapy swap chain length
	// (attempts = SwapsPerEdge · m per sample); <= 0 selects 5, enough
	// to decorrelate from the original topology on social graphs.
	SwapsPerEdge float64
	// RNG is the parent random stream. When nil, a private stream
	// seeded with Seed is used.
	RNG *rand.Rand
	// Seed seeds the private stream when RNG is nil; 0 selects 1.
	Seed int64
	// Workers bounds the sampling worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Arena supplies pooled overlay buffers. It must pool the same graph
	// the estimator samples. Nil uses a private arena, which still pools
	// rewiring scratch but cannot reuse overlay buffers across estimator
	// lifetimes; pass a shared arena and Close estimators to make
	// repeated sampling allocation-free after warm-up.
	Arena *graph.OverlayArena
	// Recorder receives the sampler's hot-path metrics (rewire
	// attempt/reject counters, arena hit/miss for private arenas, one
	// sample-batch span per construction). Nil disables instrumentation
	// at zero cost.
	Recorder *obs.Recorder
}

// withDefaults resolves the zero values to the documented defaults.
func (o EstimatorOptions) withDefaults() EstimatorOptions {
	if o.Samples <= 0 {
		o.Samples = 32
	}
	if o.SwapsPerEdge <= 0 {
		o.SwapsPerEdge = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// NewEmpiricalEstimator generates opts.Samples degree-preserving random
// overlays of g and returns the estimator over them. Every sample owns a
// child RNG seeded from the parent stream up front, which makes the
// result deterministic for a given RNG regardless of worker count or
// scheduling — and bit-identical to the historical graph-materializing
// implementation (asserted by TestEstimatorMatchesRewireReference).
func NewEmpiricalEstimator(g *graph.Graph, opts EstimatorOptions) (*Estimator, error) {
	return NewEmpiricalEstimatorCtx(context.Background(), g, opts)
}

// NewEmpiricalEstimatorCtx is NewEmpiricalEstimator with cancellation:
// workers check ctx between samples, so a cancelled context abandons the
// batch at the next sample boundary (the in-flight sample is the atomic
// unit, mirroring the experiment-granular semantics of core.RunAllCtx).
// On cancellation every already-built overlay is returned to the arena
// and the wrapped ctx error is reported; a completed estimator is
// bit-identical to an uncancelled one because the per-sample seeds are
// drawn before any sampling starts.
func NewEmpiricalEstimatorCtx(ctx context.Context, g *graph.Graph, opts EstimatorOptions) (*Estimator, error) {
	opts = opts.withDefaults()
	samples := opts.Samples
	rng := opts.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	arena := opts.Arena
	if arena == nil {
		arena = graph.NewOverlayArena(g)
		// Private arena: safe to instrument, nobody else holds it yet.
		arena.Instrument(
			opts.Recorder.Counter("graph.arena.hits"),
			opts.Recorder.Counter("graph.arena.misses"))
	} else if arena.Parent() != g {
		return nil, errors.New("nullmodel: overlay arena pools a different graph")
	}

	batch := opts.Recorder.StartSpan("sample-batch")
	if batch != nil { // attr strings would otherwise allocate on the disabled path
		batch.SetAttr("samples", fmt.Sprint(samples))
		batch.SetAttr("workers", fmt.Sprint(opts.Workers))
	}
	defer batch.End()
	mAttempts := opts.Recorder.Counter("nullmodel.rewire.attempts")
	mRejects := opts.Recorder.Counter("nullmodel.rewire.rejects")
	mSamples := opts.Recorder.Counter("nullmodel.samples")

	// Draw every child seed from the parent stream before fanning out so
	// sample i sees the same RNG no matter which worker runs it.
	seeds := make([]int64, samples)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	workers := opts.Workers
	if workers > samples {
		workers = samples
	}

	template := g.EdgeList()
	directed, n := g.Directed(), g.NumVertices()
	overlays := make([]*graph.Overlay, samples)
	errs := make([]error, samples)
	sampleInto := func(i int, scr *sampleScratch) {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("sampling cancelled: %w", err)
			return
		}
		scr.rw.resetFrom(directed, n, template)
		attempts, accepted := scr.rw.mix(opts.SwapsPerEdge, rand.New(rand.NewSource(seeds[i])))
		mAttempts.Add(int64(attempts))
		mRejects.Add(int64(attempts - accepted))
		mSamples.Inc()
		ov := arena.Get()
		if err := ov.FillFromEdges(scr.rw.edges); err != nil {
			arena.Put(ov)
			errs[i] = err
			return
		}
		overlays[i] = ov
	}
	if workers <= 1 {
		scr := scratchPool.Get().(*sampleScratch)
		for i := range overlays {
			sampleInto(i, scr)
		}
		scratchPool.Put(scr)
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scr := scratchPool.Get().(*sampleScratch)
				defer scratchPool.Put(scr)
				for i := range next {
					sampleInto(i, scr)
				}
			}()
		}
		for i := range overlays {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			for _, ov := range overlays {
				if ov != nil {
					arena.Put(ov)
				}
			}
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
	}
	return &Estimator{overlays: overlays, arena: arena}, nil
}

// Samples returns the number of null-model samples backing the estimator.
func (e *Estimator) Samples() int { return len(e.overlays) }

// Sample returns the i-th sampled overlay. It remains valid until Close.
func (e *Estimator) Sample(i int) *graph.Overlay { return e.overlays[i] }

// Expectation returns the mean internal edge count of the set across the
// samples, accumulated in sample order so the value is deterministic.
func (e *Estimator) Expectation(set *graph.Set) float64 {
	if len(e.overlays) == 0 {
		return 0
	}
	var total float64
	for _, ov := range e.overlays {
		total += float64(graph.Cut(ov, set).Internal)
	}
	return total / float64(len(e.overlays))
}

// Func adapts the estimator to the score.Context.NullExpectation shape.
func (e *Estimator) Func() func(set *graph.Set) float64 { return e.Expectation }

// Close returns the overlays to the estimator's arena for reuse by later
// estimators. The estimator must not be used after Close; calling Close
// again is a no-op. Close must not race with Expectation callers.
func (e *Estimator) Close() {
	for i, ov := range e.overlays {
		e.arena.Put(ov)
		e.overlays[i] = nil
	}
	e.overlays = e.overlays[:0]
}
