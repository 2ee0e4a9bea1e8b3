package score

import (
	"gpluscircles/internal/graph"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/par"
)

// EvaluateGroupsParallel scores every group under every function,
// fanning the groups out with par.For, producing results identical to
// EvaluateGroups. The graph is immutable and safely shared; each worker
// owns a private scratch Set. Use this for the paper-scale community
// sets (5000 groups on multi-million-edge graphs), where scoring
// dominates wall-clock.
//
// Contexts cache lazily (median degree), so the shared context is warmed
// up front to keep workers read-only.
func EvaluateGroupsParallel(ctx *Context, groups []Group, fns []Func) map[string][]float64 {
	out := make(map[string][]float64, len(fns))
	for _, f := range fns {
		out[f.Name] = make([]float64, len(groups))
	}
	if len(groups) == 0 {
		return out
	}

	// Warm lazily computed shared state before fan-out so every worker
	// hits a hot cache (the caches are synchronized, so this is an
	// optimization, not a correctness requirement).
	for _, f := range fns {
		if f.NeedsMedian {
			ctx.MedianDegree()
			break
		}
	}

	// Timer handles are atomics, so all workers share one slice.
	timers := ctx.evalTimers(fns)

	sets := make([]*graph.Set, par.Workers(len(groups), 0))
	for w := range sets {
		sets[w] = graph.NewSet(ctx.G.NumVertices())
	}
	par.For(len(groups), len(sets), func(w, i int) {
		set := sets[w]
		set.Fill(groups[i].Members)
		cut := graph.Cut(ctx.G, set)
		for fi, f := range fns {
			if timers == nil {
				out[f.Name][i] = f.Eval(ctx, set, cut)
				continue
			}
			start := obs.Now()
			out[f.Name][i] = f.Eval(ctx, set, cut)
			timers[fi].Observe(obs.Since(start))
		}
	})
	return out
}
