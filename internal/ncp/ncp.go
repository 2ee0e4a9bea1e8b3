// Package ncp computes network community profiles: the best conductance
// achievable at each community size, probed by approximate
// personalized-PageRank local clustering (Leskovec et al., "Community
// Structure in Large Networks"). The paper's central contrast — circles
// near conductance 1, communities spread below — gains a third line
// here: the NCP curve says what the graph itself admits at each size,
// so a circle's score can be read against the best possible set of its
// size rather than only against detected communities.
//
// The sweep is deterministic by construction: seed selection is a
// degree-stratified draw from a private seeded stream, the per-seed
// sweeps fan out with par.For writing into indexed slots, and the
// minima merge serially in seed order — so the curve (and every byte
// rendered from it) is identical at every GOMAXPROCS, and
// identical between a parent graph and a pooled overlay of it.
package ncp

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"gpluscircles/internal/detect"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/nullmodel"
	"gpluscircles/internal/par"
	"gpluscircles/internal/report"
)

// ErrEmptyGraph is returned when the swept graph has no vertices.
var ErrEmptyGraph = errors.New("ncp: empty graph")

// Options tunes one NCP sweep.
type Options struct {
	// Seeds is the number of PPR seed vertices (default 32), capped at
	// the vertex count. Seeds are degree-stratified: vertices are ranked
	// by degree and one seed is drawn uniformly from each rank stratum,
	// so hubs and leaves both get probed.
	Seeds int
	// Eps is the PPR residual tolerance (default 1e-4).
	Eps float64
	// Alpha is the PPR teleport probability (default 0.15).
	Alpha float64
	// MaxSize bounds the community sizes swept (default 400).
	MaxSize int
	// Seed drives the stratified seed draw; 0 selects 1.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = 32
	}
	if o.Eps <= 0 {
		o.Eps = 1e-4
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.15
	}
	if o.MaxSize <= 0 {
		o.MaxSize = 400
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Point is one point of the profile: the minimum conductance observed
// over all swept prefixes of exactly Size vertices.
type Point struct {
	Size        int
	Conductance float64
}

// Curve is a network community profile: best conductance per size,
// ascending by size, with sizes nothing swept at omitted.
type Curve struct {
	Points []Point
	// Seeds, Eps and Alpha record the resolved sweep parameters.
	Seeds int
	Eps   float64
	Alpha float64
}

// Best returns the curve's conductance at exactly size, or (1, false)
// when no swept set had that size.
func (c *Curve) Best(size int) (float64, bool) {
	i := sort.Search(len(c.Points), func(i int) bool { return c.Points[i].Size >= size })
	if i < len(c.Points) && c.Points[i].Size == size {
		return c.Points[i].Conductance, true
	}
	return 1, false
}

// BestAtMost returns the minimum conductance over sizes <= size, or
// (1, false) when the curve has no point there yet. This is the NCP
// reading used to benchmark a group: "could any set no larger than this
// one cut better?"
func (c *Curve) BestAtMost(size int) (float64, bool) {
	best, ok := 1.0, false
	for _, p := range c.Points {
		if p.Size > size {
			break
		}
		if !ok || p.Conductance < best {
			best, ok = p.Conductance, true
		}
	}
	return best, ok
}

// StratifiedSeeds draws k PPR seeds from g, degree-stratified: vertices
// are ranked by degree descending (ties ascending by id), the ranking is
// split into k equal strata, and one vertex is drawn uniformly from each
// — all from a private stream derived from seed, serially, before any
// parallelism starts. The draw is therefore a pure function of
// (degree sequence, k, seed).
func StratifiedSeeds(g *graph.Graph, k int, seed int64) []graph.VID {
	return drawSeeds(rankByDegree(g), k, seed)
}

// drawSeeds is StratifiedSeeds on a ready degree ranking.
func drawSeeds(ranked []graph.VID, k int, seed int64) []graph.VID {
	n := len(ranked)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed*1000003 + 7))
	seeds := make([]graph.VID, k)
	for j := 0; j < k; j++ {
		lo, hi := j*n/k, (j+1)*n/k
		seeds[j] = ranked[lo+rng.Intn(hi-lo)]
	}
	return seeds
}

// rankByDegree lists g's vertices by degree descending, ties ascending by
// id, with a counting sort in O(n + maxDeg) over the graph's own degree
// array: bucket b holds degree maxDeg−b, and the fill pass walks ids in
// order, so ids ascend within a bucket.
func rankByDegree(g *graph.Graph) []graph.VID {
	deg := g.Degrees()
	var maxDeg int32
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	// next[b] counts bucket b, then becomes its next free rank.
	next := make([]int32, maxDeg+1)
	for _, d := range deg {
		next[maxDeg-d]++
	}
	var rank int32
	for b, c := range next {
		next[b] = rank
		rank += c
	}
	ranked := make([]graph.VID, len(deg))
	for v, d := range deg {
		b := maxDeg - d
		ranked[next[b]] = graph.VID(v)
		next[b]++
	}
	return ranked
}

// workspace is one sweep worker's push and sweep-cut state. Both grow on
// demand, so pooled workspaces serve graphs of any size, and a request
// reuses what earlier requests allocated.
type workspace struct {
	ppr    *detect.PPR
	cutter *graphalgo.SweepCutter
}

var workspaces = sync.Pool{New: func() any {
	return &workspace{ppr: detect.NewPPR(0), cutter: graphalgo.NewSweepCutter(0)}
}}

// Sweep computes the network community profile of g: for every seed, an
// approximate PPR push followed by a sweep-cut over the
// degree-normalized ordering, with the per-size minima merged across
// seeds. The merge happens serially in seed order after the par.For
// fan-out joins, so the curve is byte-identical at every GOMAXPROCS —
// asserted by the package tests and the core golden.
func Sweep(g *graph.Graph, opts Options) (*Curve, error) {
	return sweep(g, opts, nil)
}

// sweep is Sweep with an optional seed memo for g (nil sweeps every
// seed): seeds the memo holds are read from it, only the rest are
// swept, and those are stored once every seed has succeeded. The memo
// changes which vectors are computed, never their values or the merge
// order, so the curve is the same bit for bit.
func sweep(g *graph.Graph, opts Options, memo *seedMemo) (*Curve, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	opts = opts.withDefaults()
	seeds := drawSeeds(memo.ranking(g), opts.Seeds, opts.Seed)
	results := make([][]float64, len(seeds))
	key := keyOf(opts)
	miss := memo.lookup(key, seeds, results)

	pprOpts := detect.PPROptions{Alpha: opts.Alpha, Eps: opts.Eps}
	errs := make([]error, len(seeds))
	// Each worker slot owns a pooled workspace for the fan-out; results
	// land in per-seed slots, so nothing here races or depends on
	// scheduling.
	wss := make([]*workspace, par.Workers(len(miss), 0))
	for w := range wss {
		wss[w] = workspaces.Get().(*workspace)
	}
	par.For(len(miss), len(wss), func(w, j int) {
		i := miss[j]
		results[i], errs[i] = sweepSeed(g, seeds[i], wss[w].ppr, wss[w].cutter, pprOpts, opts.MaxSize)
	})
	for _, ws := range wss {
		workspaces.Put(ws)
	}

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("seed %d (vertex %d): %w", i, seeds[i], err)
		}
	}
	memo.insert(key, seeds, miss, results)

	// Serial merge in seed order; strict < keeps the first seed's value
	// on ties, so the result is independent of worker count twice over.
	best := make([]float64, opts.MaxSize+1)
	present := make([]bool, opts.MaxSize+1)
	for _, conds := range results {
		for j, c := range conds {
			size := j + 1
			if !present[size] || c < best[size] {
				best[size], present[size] = c, true
			}
		}
	}
	curve := &Curve{Seeds: len(seeds), Eps: opts.Eps, Alpha: opts.Alpha}
	for size := 1; size <= opts.MaxSize; size++ {
		if present[size] {
			curve.Points = append(curve.Points, Point{Size: size, Conductance: best[size]})
		}
	}
	return curve, nil
}

// sweepSeed runs one seed's push + sweep and returns the per-prefix
// conductances (index i is the prefix of size i+1), truncated to maxSize.
func sweepSeed(g *graph.Graph, seed graph.VID, ppr *detect.PPR, cutter *graphalgo.SweepCutter, opts detect.PPROptions, maxSize int) ([]float64, error) {
	vec, err := ppr.Push(g, seed, opts)
	if err != nil {
		return nil, err
	}
	order := vec.DegreeNormalizedOrder(g)
	if len(order) > maxSize {
		order = order[:maxSize]
	}
	// An exact-length vector: the handler's memo keeps it, and hands it
	// to later requests to read only.
	return cutter.Conductances(g, order, make([]float64, 0, len(order)))
}

// NullCurve sweeps samples degree-preserving rewired null graphs of g
// and returns the pointwise-minimum profile across them, merged in
// sample order. The rewired graphs are pooled overlays from arena (nil
// uses a private arena), so at steady state null sweeps allocate no
// graph storage. Like Sweep, the result does not depend on GOMAXPROCS.
func NullCurve(g *graph.Graph, samples int, seed int64, arena *graph.OverlayArena, opts Options) (*Curve, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("ncp: null samples must be positive, got %d", samples)
	}
	est, err := nullmodel.NewEmpiricalEstimator(g, nullmodel.EstimatorOptions{
		Samples: samples,
		Seed:    seed,
		Arena:   arena,
	})
	if err != nil {
		return nil, fmt.Errorf("ncp: null estimator: %w", err)
	}
	defer est.Close()

	var merged *Curve
	for i := 0; i < est.Samples(); i++ {
		c, err := Sweep(est.Sample(i), opts)
		if err != nil {
			return nil, fmt.Errorf("ncp: null sample %d: %w", i, err)
		}
		merged = mergeMin(merged, c)
	}
	return merged, nil
}

// mergeMin folds curve b into a pointwise: at each size the smaller
// conductance wins, with a's value kept on ties (merge order is the
// deterministic sample order, so this is reproducible).
func mergeMin(a, b *Curve) *Curve {
	if a == nil {
		return b
	}
	out := &Curve{Seeds: a.Seeds, Eps: a.Eps, Alpha: a.Alpha}
	i, j := 0, 0
	for i < len(a.Points) || j < len(b.Points) {
		switch {
		case j >= len(b.Points) || (i < len(a.Points) && a.Points[i].Size < b.Points[j].Size):
			out.Points = append(out.Points, a.Points[i])
			i++
		case i >= len(a.Points) || b.Points[j].Size < a.Points[i].Size:
			out.Points = append(out.Points, b.Points[j])
			j++
		default:
			p := a.Points[i]
			if b.Points[j].Conductance < p.Conductance {
				p.Conductance = b.Points[j].Conductance
			}
			out.Points = append(out.Points, p)
			i++
			j++
		}
	}
	return out
}

// WriteTable renders the curve as a report table, downsampling large
// curves geometrically (every size up to 10, then ~25% steps, always
// including the final point) so the table stays readable at MaxSize 400.
func (c *Curve) WriteTable(w io.Writer, title string) error {
	tbl := report.NewTable(title, "Size", "Best conductance")
	next := 0
	for i, p := range c.Points {
		last := i == len(c.Points)-1
		if !last && p.Size > 10 && p.Size < next {
			continue
		}
		tbl.AddRow(report.FmtInt(int64(p.Size)), report.Fmt(p.Conductance))
		if p.Size >= next {
			next = p.Size * 5 / 4
			if next <= p.Size {
				next = p.Size + 1
			}
		}
	}
	return tbl.Render(w)
}
