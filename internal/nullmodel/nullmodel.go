// Package nullmodel implements the Newman–Girvan null model used by the
// Modularity scoring function (Eq. 4): random graphs with the same degree
// sequence as the original graph. Randomization follows the approach of
// Viger and Latapy: start from the observed graph and apply
// degree-preserving double-edge swaps.
package nullmodel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/par"
)

// ErrNoRNG is returned when a nil random source is supplied.
var ErrNoRNG = errors.New("nullmodel: nil RNG")

// rewirer holds a mutable arc list with O(1) duplicate detection for the
// swap Markov chain. Its storage (edge slice, presence set) is reusable
// across samples via resetFrom, so pooled callers pay zero steady-state
// allocation per sample.
type rewirer struct {
	directed bool
	edges    []graph.Edge
	present  edgeSet
}

func pack(u, v graph.VID) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// resetFrom re-initializes r to a copy of the template edge list, reusing
// r's edge buffer and presence set when their capacity allows.
func (r *rewirer) resetFrom(directed bool, template []graph.Edge) {
	r.directed = directed
	r.edges = append(r.edges[:0], template...)
	// trySwap adds both new keys before it deletes the old two.
	r.present.reset(len(template) + 2)
	for _, e := range r.edges {
		r.present.add(r.key(e.From, e.To))
	}
}

func newRewirer(g *graph.Graph) *rewirer {
	r := &rewirer{}
	r.resetFrom(g.Directed(), g.EdgeList())
	return r
}

// key canonicalizes undirected edges so {u,v} and {v,u} collide.
func (r *rewirer) key(u, v graph.VID) uint64 {
	if !r.directed && u > v {
		u, v = v, u
	}
	return pack(u, v)
}

// trySwap attempts one double-edge swap on edge indices i and j,
// reporting whether the swap was applied. Directed swap:
// (a→b),(c→d) ⇒ (a→d),(c→b). Undirected swap: {a,b},{c,d} ⇒ {a,c},{b,d}
// or {a,d},{b,c} chosen at random. Swaps creating self-loops or duplicate
// edges are rejected.
func (r *rewirer) trySwap(i, j int, rng *rand.Rand) bool {
	if i == j {
		return false
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
		return false
	}
	k1, k2 := r.key(n1.From, n1.To), r.key(n2.From, n2.To)
	if k1 == k2 {
		return false
	}
	if r.present.add(k1) {
		return false
	}
	if r.present.add(k2) {
		r.present.del(k1)
		return false
	}
	r.present.del(r.key(e1.From, e1.To))
	r.present.del(r.key(e2.From, e2.To))
	r.edges[i], r.edges[j] = n1, n2
	return true
}

// build materializes the current edge list as an immutable graph with the
// same external IDs as the source graph.
func (r *rewirer) build(src *graph.Graph) (*graph.Graph, error) {
	g, err := buildFromEdges(src, r.edges)
	if err != nil {
		return nil, fmt.Errorf("materialize rewired graph: %w", err)
	}
	return g, nil
}

// buildFromEdges materializes edges (dense indices of src) into a new
// graph carrying src's external IDs.
func buildFromEdges(src *graph.Graph, edges []graph.Edge) (*graph.Graph, error) {
	from, to := make([]graph.VID, len(edges)), make([]graph.VID, len(edges))
	for i, e := range edges {
		from[i], to[i] = e.From, e.To
	}
	return graph.FromArcs(src.Directed(), src.ExternalIDs(), from, to)
}

// mix runs the swap chain: swapsPerEdge·m attempted double-edge swaps,
// returning how many were attempted and how many were applied (the rest
// were rejected as self-loops, duplicates or degenerate pairs). The RNG
// draw sequence is the contract the overlay-based estimator's determinism
// tests rely on; change it only with a migration plan for recorded
// expectations.
func (r *rewirer) mix(swapsPerEdge float64, rng *rand.Rand) (attempts, accepted int) {
	m := len(r.edges)
	if m < 2 {
		return 0, 0
	}
	attempts = int(swapsPerEdge * float64(m))
	for k := 0; k < attempts; k++ {
		if r.trySwap(rng.Intn(m), rng.Intn(m), rng) {
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

// sampleScratch is the reusable per-worker state for overlay sampling:
// the rewirer's edge buffer and presence set. Pooled globally — the
// buffers grow to fit whatever graph a worker touches and are reused
// across estimator calls, so steady-state sampling allocates nothing.
type sampleScratch struct {
	rw rewirer
}

var scratchPool = sync.Pool{New: func() any { return new(sampleScratch) }}

// Estimator estimates E(m_C) — the expected internal edge count of a
// vertex set under the degree-preserving null model — from Viger–Latapy
// rewire samples held in graph.Overlay values over the source graph.
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

	workers := par.Workers(samples, 0)
	batch := opts.Recorder.StartSpan("sample-batch")
	if batch != nil { // attr strings would otherwise allocate on the disabled path
		batch.SetAttr("samples", fmt.Sprint(samples))
		batch.SetAttr("workers", fmt.Sprint(workers))
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

	template := g.EdgeList()
	directed := g.Directed()
	overlays := make([]*graph.Overlay, samples)
	errs := make([]error, samples)
	sampleInto := func(i int, scr *sampleScratch) {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("sampling cancelled: %w", err)
			return
		}
		scr.rw.resetFrom(directed, template)
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
	// One pooled rewiring scratch per worker slot, returned once the
	// batch has joined.
	scratch := make([]*sampleScratch, workers)
	for w := range scratch {
		scratch[w] = scratchPool.Get().(*sampleScratch)
	}
	par.For(samples, workers, func(w, i int) { sampleInto(i, scratch[w]) })
	for _, scr := range scratch {
		scratchPool.Put(scr)
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

// Sample returns the graph of the i-th sampled overlay. It remains valid
// until Close.
func (e *Estimator) Sample(i int) *graph.Graph { return &e.overlays[i].Graph }

// Expectation returns the mean internal edge count of the set across the
// samples, accumulated in sample order so the value is deterministic.
func (e *Estimator) Expectation(set *graph.Set) float64 {
	if len(e.overlays) == 0 {
		return 0
	}
	var total float64
	for _, ov := range e.overlays {
		total += float64(graph.Cut(&ov.Graph, set).Internal)
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
