package detect

import (
	"cmp"
	"fmt"
	"slices"

	"gpluscircles/internal/graph"
)

// PPROptions tunes the approximate personalized-PageRank push.
type PPROptions struct {
	// Alpha is the teleport probability (default 0.15): the chance the
	// walk restarts at the seed instead of following an edge.
	Alpha float64
	// Eps is the residual tolerance (default 1e-4): the push terminates
	// when every vertex v holds residual r(v) < Eps·deg(v), which bounds
	// the approximation error of p(v)/deg(v) by Eps (Andersen–Chung–Lang,
	// Theorem 1).
	Eps float64
	// MaxPush caps the number of push operations as a safety valve
	// against pathological parameters (default 0: no cap; the eps bound
	// alone guarantees termination in at most 1/(eps·alpha) pushes of
	// residual mass).
	MaxPush int
}

func (o PPROptions) withDefaults() PPROptions {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.15
	}
	if o.Eps <= 0 {
		o.Eps = 1e-4
	}
	return o
}

// PPRVector is the result of one push: a sparse approximate PPR vector.
// It aliases the workspace that produced it and is valid only until that
// workspace's next Push.
type PPRVector struct {
	// Support lists the vertices with positive approximate score p(v),
	// ascending by vertex id.
	Support []graph.VID
	// Touched lists every vertex with nonzero p or residual r, ascending;
	// a superset of Support. Mass conservation holds over Touched.
	Touched []graph.VID
	// Pushes counts the push operations performed.
	Pushes int

	p, r []float64
}

// Score returns the approximate PPR mass p(u).
func (v *PPRVector) Score(u graph.VID) float64 { return v.p[u] }

// Residual returns the unpushed residual mass r(u).
func (v *PPRVector) Residual(u graph.VID) float64 { return v.r[u] }

// DegreeNormalizedOrder returns the support sorted by p(v)/deg(v)
// descending — the sweep ordering of local spectral clustering. Ties
// break ascending by vertex id so the ordering (and everything computed
// from it) is deterministic. Degree-0 vertices order first: their mass
// can never leave, so p(v)/deg(v) is effectively infinite.
func (v *PPRVector) DegreeNormalizedOrder(g *graph.Graph) []graph.VID {
	order := make([]graph.VID, len(v.Support))
	copy(order, v.Support)
	// The comparator need not be transitive under rounding, so the
	// permutation depends on the sort's comparison sequence. SortFunc
	// runs the same pdqsort as sort.Slice, asking cmp(a, b) < 0 wherever
	// sort.Slice asks less(a, b), so the order matches sort.Slice's.
	slices.SortFunc(order, func(a, b graph.VID) int {
		da, db := g.Degree(a), g.Degree(b)
		if da == 0 || db == 0 {
			switch {
			case da != 0:
				return 1
			case db != 0:
				return -1
			}
			return cmp.Compare(a, b)
		}
		// Compare p(a)/da vs p(b)/db by cross-multiplication: exact in
		// the common degree range and free of 0/0 special cases beyond
		// the explicit zero-degree branches.
		ra := v.p[a] * float64(db)
		rb := v.p[b] * float64(da)
		switch {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		}
		return cmp.Compare(a, b)
	})
	return order
}

// PPR is a reusable workspace for approximate personalized-PageRank
// pushes over graphs with a common vertex range. Reuse keeps a sweep over
// many seeds allocation-free in the steady state: only the vertices
// touched by the previous push are cleared, not the whole arrays. Not
// safe for concurrent use; parallel sweeps hold one PPR per worker.
type PPR struct {
	p, r    []float64
	queued  []bool
	marked  []bool // marked[v]: v is in touched
	queue   []graph.VID
	head    int // queue[head:] is the live FIFO
	touched []graph.VID
	support []graph.VID
	vec     PPRVector
}

// denseTouchedShare picks how finish orders the touched set: a set of at
// least 1/denseTouchedShare of the vertex range is listed by one scan of
// the marks, a smaller one is sorted. The scan costs under a nanosecond
// per vertex and the sort some ten to thirty per touched vertex, so they
// break even near a 4 % share. Default-eps pushes from stratified seeds
// touch 4–43 % of the Google+ benchmark graph (median 12 %).
const denseTouchedShare = 25

// NewPPR returns a workspace for graphs with up to n vertices.
func NewPPR(n int) *PPR {
	return &PPR{
		p:      make([]float64, n),
		r:      make([]float64, n),
		queued: make([]bool, n),
		marked: make([]bool, n),
	}
}

func (w *PPR) grow(n int) {
	if len(w.p) < n {
		w.p = make([]float64, n)
		w.r = make([]float64, n)
		w.queued = make([]bool, n)
		w.marked = make([]bool, n)
		w.touched = w.touched[:0]
	}
}

// touch records the first time mass reaches v.
func (w *PPR) touch(v graph.VID) {
	if !w.marked[v] {
		w.marked[v] = true
		w.touched = append(w.touched, v)
	}
}

// enqueue appends v to the FIFO. A full buffer that is at least half
// consumed slides its live entries to the front instead of growing, so
// the buffer tracks the live queue rather than the total push count.
func (w *PPR) enqueue(v graph.VID) {
	if len(w.queue) == cap(w.queue) && w.head >= len(w.queue)/2 {
		w.queue = w.queue[:copy(w.queue, w.queue[w.head:])]
		w.head = 0
	}
	w.queue = append(w.queue, v)
	w.queued[v] = true
}

// Push computes an approximate PPR vector personalized on seed with the
// Andersen–Chung–Lang push procedure: repeatedly pick a vertex u with
// r(u) ≥ eps·deg(u), move alpha·r(u) into p(u), spread (1−alpha)·r(u)
// evenly over u's neighbors' residuals, and zero r(u). At termination
// every residual satisfies r(v) < eps·deg(v) and the total mass p + r
// still sums to 1 (floating-point roundoff aside) — both properties are
// asserted by the detect property tests over the seed datasets.
//
// Directed graphs diffuse over the union adjacency (out- and in-
// neighbors), matching graph.Degree and the undirected reading the
// paper's conductance metric takes of the social graph.
//
// The returned vector aliases the workspace and is valid until the next
// Push. An out-of-range seed returns ErrBadSeed.
func (w *PPR) Push(g *graph.Graph, seed graph.VID, opts PPROptions) (*PPRVector, error) {
	n := g.NumVertices()
	if seed < 0 || int(seed) >= n {
		return nil, fmt.Errorf("%w: %d", ErrBadSeed, seed)
	}
	opts = opts.withDefaults()
	w.grow(n)
	// Lazy clear: only what the previous push dirtied.
	for _, v := range w.touched {
		w.p[v] = 0
		w.r[v] = 0
		w.queued[v] = false
		w.marked[v] = false
	}
	w.touched = w.touched[:0]
	w.queue = w.queue[:0]
	w.head = 0

	w.r[seed] = 1
	w.touch(seed)
	if g.Degree(seed) == 0 {
		// An isolated seed holds all mass forever: the walk can never
		// leave, so the exact PPR vector is the indicator of the seed.
		w.p[seed] = 1
		w.r[seed] = 0
		return w.finish(n, 0), nil
	}
	w.enqueue(seed)

	directed := g.Directed()
	pushes := 0
	for w.head < len(w.queue) {
		if opts.MaxPush > 0 && pushes >= opts.MaxPush {
			break
		}
		u := w.queue[w.head]
		w.head++
		w.queued[u] = false
		deg := float64(g.Degree(u))
		ru := w.r[u]
		if ru < opts.Eps*deg {
			// Stale queue entry: the residual was pushed below threshold
			// by an earlier pop before this one drained.
			continue
		}
		pushes++
		w.p[u] += opts.Alpha * ru
		w.r[u] = 0
		share := (1 - opts.Alpha) * ru / deg
		spread := func(v graph.VID) {
			w.touch(v)
			w.r[v] += share
			if !w.queued[v] && w.r[v] >= opts.Eps*float64(g.Degree(v)) {
				w.enqueue(v)
			}
		}
		for _, v := range g.OutNeighbors(u) {
			spread(v)
		}
		if directed {
			for _, v := range g.InNeighbors(u) {
				spread(v)
			}
		}
	}
	return w.finish(n, pushes), nil
}

// finish orders the touched set of a push over n vertices, collects the
// support from it, and materializes the result vector. A large touched
// set is listed by one scan of the marks, in O(n); a small one is
// sorted, in O(t log t).
func (w *PPR) finish(n, pushes int) *PPRVector {
	if len(w.touched)*denseTouchedShare >= n {
		w.touched = w.touched[:0]
		for v, m := range w.marked[:n] {
			if m {
				w.touched = append(w.touched, graph.VID(v))
			}
		}
	} else {
		slices.Sort(w.touched)
	}
	w.support = w.support[:0]
	for _, v := range w.touched {
		if w.p[v] > 0 {
			w.support = append(w.support, v)
		}
	}
	w.vec = PPRVector{
		Support: w.support,
		Touched: w.touched,
		Pushes:  pushes,
		p:       w.p,
		r:       w.r,
	}
	return &w.vec
}

// ApproxPPR is the convenience form of PPR.Push for one-off calls.
func ApproxPPR(g *graph.Graph, seed graph.VID, opts PPROptions) (*PPRVector, error) {
	return NewPPR(g.NumVertices()).Push(g, seed, opts)
}
