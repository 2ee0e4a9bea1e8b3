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
	// Touched lists every vertex the push reached, each once, in the
	// order mass first reached it (the seed first); a superset of
	// Support. Mass conservation holds over Touched.
	Touched []graph.VID
	// Pushes counts the push operations performed.
	Pushes int

	p     []float64
	slots []pprSlot
}

// Score returns the approximate PPR mass p(u).
func (v *PPRVector) Score(u graph.VID) float64 { return v.p[u] }

// Residual returns the unpushed residual mass r(u).
func (v *PPRVector) Residual(u graph.VID) float64 { return v.slots[u].r }

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
	p       []float64
	slots   []pprSlot
	queue   []graph.VID
	head    int // queue[head:] is the live FIFO
	touched []graph.VID
	support []graph.VID
	vec     PPRVector
}

// pprSlot is one vertex's push state, fused so the spread loop reads and
// writes one slot per neighbour. threshold is eps·deg(v), computed once
// when mass first reaches v; a zero slot is an untouched vertex.
type pprSlot struct {
	r         float64
	threshold float64
	queued    bool
	marked    bool // v is in touched
}

// NewPPR returns a workspace for graphs with up to n vertices.
func NewPPR(n int) *PPR {
	return &PPR{p: make([]float64, n), slots: make([]pprSlot, n)}
}

func (w *PPR) grow(n int) {
	if len(w.p) < n {
		w.p = make([]float64, n)
		w.slots = make([]pprSlot, n)
		w.touched = w.touched[:0]
	}
}

// mark records v, whose slot is s, as touched and sets its threshold:
// the first time mass reaches v.
func (w *PPR) mark(g *graph.Graph, v graph.VID, s *pprSlot, eps float64) {
	s.marked = true
	s.threshold = eps * float64(g.Degree(v))
	w.touched = append(w.touched, v)
}

// enqueue appends v, whose slot is s, to the FIFO. A full buffer that is
// at least half consumed slides its live entries to the front instead of
// growing, so the buffer tracks the live queue rather than the total
// push count.
func (w *PPR) enqueue(v graph.VID, s *pprSlot) {
	if len(w.queue) == cap(w.queue) && w.head >= len(w.queue)/2 {
		w.queue = w.queue[:copy(w.queue, w.queue[w.head:])]
		w.head = 0
	}
	w.queue = append(w.queue, v)
	s.queued = true
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
		w.slots[v] = pprSlot{}
	}
	w.touched = w.touched[:0]
	w.support = w.support[:0]
	w.queue = w.queue[:0]
	w.head = 0

	eps := opts.Eps
	s := &w.slots[seed]
	w.mark(g, seed, s, eps)
	if g.Degree(seed) == 0 {
		// An isolated seed holds all mass forever: the walk can never
		// leave, so the exact PPR vector is the indicator of the seed.
		w.p[seed] = 1
		w.support = append(w.support, seed)
		return w.finish(0), nil
	}
	s.r = 1
	w.enqueue(seed, s)

	directed := g.Directed()
	pushes := 0
	for w.head < len(w.queue) {
		if opts.MaxPush > 0 && pushes >= opts.MaxPush {
			break
		}
		u := w.queue[w.head]
		w.head++
		su := &w.slots[u]
		su.queued = false
		ru := su.r
		if ru < su.threshold {
			// Stale queue entry: the residual was pushed below threshold
			// by an earlier pop before this one drained.
			continue
		}
		pushes++
		// alpha·r(u) can round to zero, so u joins the support when its
		// score first turns positive, not when it is first pushed.
		pu := w.p[u]
		w.p[u] = pu + opts.Alpha*ru
		if pu == 0 && w.p[u] > 0 { //lint:ignore floateq p(u) starts at exactly 0 and never falls: this is its first rise
			w.support = append(w.support, u)
		}
		su.r = 0
		share := (1 - opts.Alpha) * ru / float64(g.Degree(u))
		w.spread(g, g.OutNeighbors(u), share, eps)
		if directed {
			w.spread(g, g.InNeighbors(u), share, eps)
		}
	}
	return w.finish(pushes), nil
}

// spread adds share to the residual of every vertex in nbrs and queues
// those that reach their threshold.
func (w *PPR) spread(g *graph.Graph, nbrs []graph.VID, share, eps float64) {
	for _, v := range nbrs {
		s := &w.slots[v]
		if !s.marked {
			w.mark(g, v, s, eps)
		}
		s.r += share
		if !s.queued && s.r >= s.threshold {
			w.enqueue(v, s)
		}
	}
}

// finish puts the support, recorded as scores turned positive, in
// ascending order and materializes the result vector. The order must
// stay ascending: DegreeNormalizedOrder's permutation depends on the
// order of its input.
func (w *PPR) finish(pushes int) *PPRVector {
	slices.Sort(w.support)
	w.vec = PPRVector{
		Support: w.support,
		Touched: w.touched,
		Pushes:  pushes,
		p:       w.p,
		slots:   w.slots,
	}
	return &w.vec
}

// ApproxPPR is the convenience form of PPR.Push for one-off calls.
func ApproxPPR(g *graph.Graph, seed graph.VID, opts PPROptions) (*PPRVector, error) {
	return NewPPR(g.NumVertices()).Push(g, seed, opts)
}
