package graph

import (
	"fmt"
	"sync"

	"gpluscircles/internal/obs"
)

// Overlay is an adjacency-only rewrite of a parent graph. It exists for
// degree-preserving null models, where every sample realizes the exact
// degree sequence of the parent — hence the offset arrays and the ids
// table are invariant and can be shared; only the 2m adjacency entries
// differ per sample.
//
// The embedded Graph is the sample: it has the parent's layout, so every
// Graph method and every function taking a *Graph reads it directly
// (pass &o.Graph), and its Base is the parent.
//
// Memory model:
//
//   - Shared with the parent (never written): ids, outOff, inOff and
//     the degree array (Degrees).
//   - Owned by the overlay (rewritten per sample): outAdj and, for
//     directed parents, inAdj. For undirected parents inAdj aliases
//     outAdj, mirroring Graph's layout, so an overlay costs exactly 2m
//     VIDs regardless of directedness.
//
// An Overlay is safe for concurrent readers once filled; filling
// (Reset/FillFromEdges) must not race with readers. Obtain pooled
// overlays from an OverlayArena to make repeated sampling allocation-free
// after warm-up.
type Overlay struct {
	Graph

	cursor []int64 // scratch write cursors for FillFromEdges, len n
}

// NewOverlay allocates an overlay of parent's base graph, initialized to
// that graph's own adjacency (i.e. a sample equal to the base).
func NewOverlay(parent *Graph) *Overlay {
	parent = parent.Base()
	o := &Overlay{Graph: *parent}
	o.base = parent
	o.outAdj = make([]VID, len(parent.outAdj))
	if parent.directed {
		o.inAdj = make([]VID, len(parent.inAdj))
	} else {
		o.inAdj = o.outAdj
	}
	o.Reset()
	return o
}

// Reset copies the parent's adjacency back into the overlay.
func (o *Overlay) Reset() {
	copy(o.outAdj, o.base.outAdj)
	if o.directed {
		copy(o.inAdj, o.base.inAdj)
	}
}

// FillFromEdges overwrites the overlay's adjacency with the given edge
// list, which must be simple and realize exactly the parent's per-vertex
// degree sequence (out- and in-degrees for directed parents). Rows are
// re-sorted ascending, preserving the Graph adjacency invariant. The
// edges slice is not retained.
//
// The degree check is exact: an edge list that would overflow any CSR row
// returns an error before corrupting neighboring rows, and underfull rows
// are reported after placement. A list that matches every degree but
// holds a self-loop or a repeated edge is rejected after sorting. After
// an error the overlay's adjacency is unspecified until the next Reset or
// successful fill.
func (o *Overlay) FillFromEdges(edges []Edge) error {
	g := &o.Graph
	n := g.NumVertices()
	if o.cursor == nil {
		o.cursor = make([]int64, n)
	}
	cur := o.cursor

	place := func(adj []VID, off []int64, from, to VID) error {
		if cur[from] >= off[from+1] {
			return fmt.Errorf("graph: overlay fill: vertex %d exceeds its degree %d", from, off[from+1]-off[from])
		}
		adj[cur[from]] = to
		cur[from]++
		return nil
	}
	checkFull := func(off []int64) error {
		for v := 0; v < n; v++ {
			if cur[v] != off[v+1] {
				return fmt.Errorf("graph: overlay fill: vertex %d got %d of %d neighbors", v, cur[v]-off[v], off[v+1]-off[v])
			}
		}
		return nil
	}

	copy(cur, g.outOff[:n])
	if g.directed {
		for _, e := range edges {
			if err := place(o.outAdj, g.outOff, e.From, e.To); err != nil {
				return err
			}
		}
		if err := checkFull(g.outOff); err != nil {
			return err
		}
		copy(cur, g.inOff[:n])
		for _, e := range edges {
			if err := place(o.inAdj, g.inOff, e.To, e.From); err != nil {
				return err
			}
		}
		if err := checkFull(g.inOff); err != nil {
			return err
		}
		sortRows(o.outAdj, g.outOff, n)
		if err := checkSimple(o.outAdj, g.outOff, n); err != nil {
			return err
		}
		sortRows(o.inAdj, g.inOff, n)
		return nil
	}

	// Undirected: each edge lands in both endpoint rows of the single
	// shared adjacency array.
	for _, e := range edges {
		if err := place(o.outAdj, g.outOff, e.From, e.To); err != nil {
			return err
		}
		if err := place(o.outAdj, g.outOff, e.To, e.From); err != nil {
			return err
		}
	}
	if err := checkFull(g.outOff); err != nil {
		return err
	}
	sortRows(o.outAdj, g.outOff, n)
	return checkSimple(o.outAdj, g.outOff, n)
}

// sortRows restores the ascending-row invariant after a counting fill.
// Rows are short on social graphs, so insertion sort beats the generic
// sort without allocating.
func sortRows(adj []VID, off []int64, n int) {
	for v := 0; v < n; v++ {
		row := adj[off[v]:off[v+1]]
		for i := 1; i < len(row); i++ {
			x := row[i]
			j := i - 1
			for j >= 0 && row[j] > x {
				row[j+1] = row[j]
				j--
			}
			row[j+1] = x
		}
	}
}

// checkSimple reports the first sorted row that holds its own vertex or
// repeats a neighbor. The in-rows of a directed fill are the transpose of
// its out-rows, so checking the out-rows covers both.
func checkSimple(adj []VID, off []int64, n int) error {
	for v := 0; v < n; v++ {
		row := adj[off[v]:off[v+1]]
		for i, w := range row {
			if w == VID(v) || (i > 0 && row[i-1] == w) {
				return fmt.Errorf("graph: overlay fill: vertex %d: self-loop or repeated neighbor %d", v, w)
			}
		}
	}
	return nil
}

// Materialize builds an immutable Graph equal to the overlay's current
// contents, carrying the parent's external IDs. Intended for callers that
// need to hand a sample to APIs requiring a concrete *Graph; the hot
// sampling paths never call it.
func (o *Overlay) Materialize() (*Graph, error) {
	from, to := arcList(&o.Graph)
	return FromArcs(o.directed, o.ids, from, to)
}

// OverlayArena pools overlays of a single parent graph so repeated
// null-model sampling reuses adjacency buffers instead of allocating
// fresh ones per sample. Get returns an overlay with unspecified
// adjacency contents (a previous user's sample or the parent's
// adjacency); callers that need a parent copy must Reset it, and callers
// that fully overwrite it (FillFromEdges) can skip the copy.
//
// The arena is safe for concurrent use. Overlays must be returned with
// Put only once their readers are done; a pooled overlay must never be
// read after Put.
type OverlayArena struct {
	parent *Graph
	pool   sync.Pool

	// hits counts Gets served from the pool, misses Gets that had to
	// allocate a fresh overlay. Nil (the default) disables counting;
	// see Instrument.
	hits   *obs.Counter
	misses *obs.Counter
}

// NewOverlayArena creates an arena pooling overlays of parent.
func NewOverlayArena(parent *Graph) *OverlayArena {
	return &OverlayArena{parent: parent}
}

// Instrument wires the arena's hit/miss counters (a pool hit reuses a
// buffer, a miss allocates a fresh 2m-entry overlay). Call it before the
// arena is shared across goroutines — typically right after
// NewOverlayArena — because the handles are plain fields read by Get.
// Either counter may be nil.
func (a *OverlayArena) Instrument(hits, misses *obs.Counter) {
	a.hits = hits
	a.misses = misses
}

// Parent returns the graph whose overlays the arena pools.
func (a *OverlayArena) Parent() *Graph { return a.parent }

// Get returns a pooled (or freshly allocated) overlay of the arena's
// parent. Its adjacency contents are unspecified; see the type comment.
func (a *OverlayArena) Get() *Overlay {
	if v := a.pool.Get(); v != nil {
		a.hits.Inc()
		return v.(*Overlay)
	}
	a.misses.Inc()
	return NewOverlay(a.parent)
}

// Put returns an overlay to the arena. Putting an overlay of a different
// parent is a programming error and panics: mixing parents would hand
// future Get callers adjacency buffers of the wrong shape.
func (a *OverlayArena) Put(o *Overlay) {
	if o == nil {
		return
	}
	if o.base != a.parent {
		panic("graph: OverlayArena.Put of overlay with a different parent")
	}
	a.pool.Put(o)
}
