// Package score implements community scoring functions over vertex sets,
// following Section V of the paper. It provides the paper's four primary
// functions — Average Degree, Ratio Cut, Conductance, and Modularity —
// plus the wider Yang–Leskovec battery of community metrics the paper's
// methodology is based on.
//
// All functions share a Context holding the host graph and lazily
// computed global statistics, evaluate against a graph.Set with its
// precomputed graph.CutStats, and return a float64 score. Extremal values
// indicate community-like structure, with the direction depending on the
// function (documented per function).
package score

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/obs"
)

// ErrUnknownFunc is returned when a scoring function name is not
// registered.
var ErrUnknownFunc = errors.New("score: unknown scoring function")

// Context carries the host graph and shared statistics for scoring many
// groups on the same graph. Create with NewContext; the zero value is not
// usable.
//
// A Context is safe for concurrent use by multiple goroutines once
// constructed: the lazily computed caches (median degree, per-vertex
// degree tables) are synchronized, and the installed NullExpectation
// implementations are read-only after construction. Callers that swap in
// their own NullExpectation must do so before sharing the context.
type Context struct {
	// G is the scored graph: a built graph, or the graph of an Overlay
	// when scoring a null-model sample in place.
	G *graph.Graph

	// NullExpectation returns E(m_C), the expected number of internal
	// edges of the set under the Newman–Girvan null model (a random graph
	// with the same degree sequence). NewContext installs the analytic
	// Chung–Lu expectation; callers may replace it with an empirical
	// estimator built from Viger–Latapy samples (see package nullmodel).
	NullExpectation func(set *graph.Set) float64

	// Recorder, when non-nil, receives per-function evaluation timers
	// ("score/<name>") from the group evaluators. Like NullExpectation it
	// must be installed before the context is shared; timer handles
	// themselves are safe for concurrent workers.
	Recorder *obs.Recorder

	medianOnce   sync.Once
	medianDegree float64

	// Degree caches for ChungLuExpectation: looking the degrees up once
	// per vertex and re-reading a flat float64 slice beats re-deriving
	// them from the CSR offsets on every set evaluation. For directed
	// graphs outDeg/inDeg hold out- and in-degrees; for undirected graphs
	// outDeg holds the full degree and inDeg stays nil.
	degOnce sync.Once
	outDeg  []float64
	inDeg   []float64
}

// NewContext builds a scoring context with the analytic null-model
// expectation installed. g may be an Overlay's graph.
func NewContext(g *graph.Graph) *Context {
	ctx := &Context{G: g}
	ctx.NullExpectation = ctx.ChungLuExpectation
	return ctx
}

// MedianDegree returns the median of d(v) over the whole graph, computed
// once and cached (goroutine-safe). Used by the FOMD metric.
func (ctx *Context) MedianDegree() float64 {
	ctx.medianOnce.Do(func() {
		seq := ctx.G.DegreeSequence()
		sort.Ints(seq)
		n := len(seq)
		switch {
		case n == 0:
			ctx.medianDegree = 0
		case n%2 == 1:
			ctx.medianDegree = float64(seq[n/2])
		default:
			ctx.medianDegree = float64(seq[n/2-1]+seq[n/2]) / 2
		}
	})
	return ctx.medianDegree
}

// degreeCaches materializes (once, goroutine-safe) the per-vertex degree
// tables consumed by ChungLuExpectation.
func (ctx *Context) degreeCaches() (out, in []float64) {
	ctx.degOnce.Do(func() {
		g := ctx.G
		n := g.NumVertices()
		ctx.outDeg = make([]float64, n)
		if g.Directed() {
			ctx.inDeg = make([]float64, n)
			for v := 0; v < n; v++ {
				ctx.outDeg[v] = float64(g.OutDegree(graph.VID(v)))
				ctx.inDeg[v] = float64(g.InDegree(graph.VID(v)))
			}
			return
		}
		for v := 0; v < n; v++ {
			ctx.outDeg[v] = float64(g.Degree(graph.VID(v)))
		}
	})
	return ctx.outDeg, ctx.inDeg
}

// ChungLuExpectation returns the analytic expected internal edge count of
// the set under a degree-preserving random graph: for directed graphs
// E(m_C) = outSum(C)·inSum(C)/m, and for undirected graphs
// E(m_C) = degSum(C)² / (4m). Degree sums read the cached per-vertex
// degree tables, so scoring thousands of sets never re-walks the CSR
// offsets.
func (ctx *Context) ChungLuExpectation(set *graph.Set) float64 {
	if ctx.G.NumEdges() == 0 {
		return 0
	}
	m := float64(ctx.G.NumEdges())
	outDeg, inDeg := ctx.degreeCaches()
	if ctx.G.Directed() {
		var outSum, inSum float64
		for _, v := range set.Members() {
			outSum += outDeg[v]
			inSum += inDeg[v]
		}
		return outSum * inSum / m
	}
	var degSum float64
	for _, v := range set.Members() {
		degSum += outDeg[v]
	}
	return degSum * degSum / (4 * m)
}

// Func is a named scoring function. Eval receives the shared context, the
// vertex set and its precomputed cut statistics.
type Func struct {
	// Name is the canonical registry key, e.g. "conductance".
	Name string
	// Label is the human-readable name used in reports.
	Label string
	// LowerIsCommunity reports the extremal direction: true when a low
	// score indicates community structure (e.g. Conductance), false when
	// a high score does (e.g. Average Degree).
	LowerIsCommunity bool
	// NeedsMedian declares that Eval reads Context.MedianDegree, so
	// parallel evaluators can warm the cache before fanning out instead
	// of sniffing function names.
	NeedsMedian bool
	// Eval computes the score.
	Eval func(ctx *Context, set *graph.Set, cut graph.CutStats) float64
}

// Group is a named vertex set: a circle or a community.
type Group struct {
	// Name identifies the group within its data set (e.g. "ego102/circle3").
	Name string
	// Members are dense vertex indices into the host graph.
	Members []graph.VID
}

// Evaluate scores a single group under the given functions, returning
// scores keyed by function name. The cut statistics are computed once and
// shared by every function.
func Evaluate(ctx *Context, members []graph.VID, fns []Func) map[string]float64 {
	set := graph.SetOf(ctx.G, members)
	cut := graph.Cut(ctx.G, set)
	out := make(map[string]float64, len(fns))
	for _, f := range fns {
		out[f.Name] = f.Eval(ctx, set, cut)
	}
	return out
}

// evalTimers resolves one timer handle per function ("score/<name>")
// against the context's recorder, or nil when instrumentation is off —
// the evaluators hoist this lookup out of their group loops so the
// disabled path costs a single nil check per evaluation.
func (ctx *Context) evalTimers(fns []Func) []*obs.Timer {
	if ctx.Recorder == nil {
		return nil
	}
	timers := make([]*obs.Timer, len(fns))
	for i, f := range fns {
		timers[i] = ctx.Recorder.Timer("score/" + f.Name)
	}
	return timers
}

// EvaluateGroups scores every group under every function. The result maps
// function name -> scores aligned with the groups slice. A reusable set
// avoids per-group bitmap allocation.
func EvaluateGroups(ctx *Context, groups []Group, fns []Func) map[string][]float64 {
	out := make(map[string][]float64, len(fns))
	for _, f := range fns {
		out[f.Name] = make([]float64, 0, len(groups))
	}
	timers := ctx.evalTimers(fns)
	set := graph.NewSet(ctx.G.NumVertices())
	for _, grp := range groups {
		set.Fill(grp.Members)
		cut := graph.Cut(ctx.G, set)
		for fi, f := range fns {
			if timers == nil {
				out[f.Name] = append(out[f.Name], f.Eval(ctx, set, cut))
				continue
			}
			start := obs.Now()
			v := f.Eval(ctx, set, cut)
			timers[fi].Observe(obs.Since(start))
			out[f.Name] = append(out[f.Name], v)
		}
	}
	return out
}

// registry indexes AllFuncs by name. It is built once and only read
// after that: ByName runs on every /v1/score request.
var registry = sync.OnceValue(func() map[string]Func {
	all := AllFuncs()
	idx := make(map[string]Func, len(all))
	for _, f := range all {
		idx[f.Name] = f
	}
	return idx
})

// ByName resolves function names against the full registry, returning
// copies in the order of names.
func ByName(names ...string) ([]Func, error) {
	idx := registry()
	out := make([]Func, 0, len(names))
	for _, name := range names {
		f, ok := idx[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownFunc, name)
		}
		out = append(out, f)
	}
	return out, nil
}

// PaperFuncs returns the paper's four scoring functions in presentation
// order (Fig. 5 / Fig. 6 panels a-d).
func PaperFuncs() []Func {
	return []Func{AverageDegree(), RatioCut(), Conductance(), Modularity()}
}

// AllFuncs returns the paper's four functions followed by the extended
// Yang–Leskovec battery.
func AllFuncs() []Func {
	out := PaperFuncs()
	out = append(out, ExtendedFuncs()...)
	return out
}
