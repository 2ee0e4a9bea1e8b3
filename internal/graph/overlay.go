package graph

import (
	"fmt"
	"sort"
	"sync"

	"gpluscircles/internal/obs"
)

// View is the read-only adjacency surface the scoring and analysis code
// consumes. Both *Graph and *Overlay satisfy it, so the community scoring
// functions and graph.Cut evaluate null-model samples without ever
// materializing them as full graphs.
//
// Implementations must be safe for concurrent readers and must uphold the
// Graph invariants: neighbor slices are sorted ascending and owned by the
// view (callers must not modify them), and degrees are consistent with
// the slices' lengths.
type View interface {
	Directed() bool
	NumVertices() int
	NumEdges() int64
	Degree(v VID) int
	OutDegree(v VID) int
	InDegree(v VID) int
	OutNeighbors(v VID) []VID
	InNeighbors(v VID) []VID
	HasEdge(u, v VID) bool
	DegreeSequence() []int
}

var (
	_ View = (*Graph)(nil)
	_ View = (*Overlay)(nil)
)

// Overlay is an adjacency-only rewrite of a parent graph: a view with the
// parent's vertex set, interning tables and CSR offsets, but its own
// adjacency storage. It exists for degree-preserving null models, where
// every sample realizes the exact degree sequence of the parent — hence
// the offset arrays and the ids table are invariant and
// can be shared; only the 2m adjacency entries differ per sample.
//
// Memory model:
//
//   - Shared with the parent (never written): ids, outOff, inOff.
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
	parent *Graph
	outAdj []VID
	inAdj  []VID // aliases outAdj when the parent is undirected

	cursor []int64 // scratch write cursors for FillFromEdges, len n
}

// NewOverlay allocates an overlay of parent initialized to the parent's
// own adjacency (i.e. a view equal to the parent).
func NewOverlay(parent *Graph) *Overlay {
	o := &Overlay{
		parent: parent,
		outAdj: make([]VID, len(parent.outAdj)),
	}
	if parent.directed {
		o.inAdj = make([]VID, len(parent.inAdj))
	} else {
		o.inAdj = o.outAdj
	}
	o.Reset()
	return o
}

// Parent returns the graph whose structure the overlay shares.
func (o *Overlay) Parent() *Graph { return o.parent }

// Reset copies the parent's adjacency back into the overlay.
func (o *Overlay) Reset() {
	copy(o.outAdj, o.parent.outAdj)
	if o.parent.directed {
		copy(o.inAdj, o.parent.inAdj)
	}
}

// Directed reports whether the parent (and hence the overlay) is directed.
func (o *Overlay) Directed() bool { return o.parent.directed }

// NumVertices returns the parent's vertex count.
func (o *Overlay) NumVertices() int { return o.parent.NumVertices() }

// NumEdges returns the parent's edge count; every legal overlay fill
// realizes the same m.
func (o *Overlay) NumEdges() int64 { return o.parent.m }

// ExternalID returns the data-set ID of the dense vertex v.
func (o *Overlay) ExternalID(v VID) int64 { return o.parent.ExternalID(v) }

// OutNeighbors returns the overlay's out-adjacency of v, sorted
// ascending. Callers must not modify the returned slice.
func (o *Overlay) OutNeighbors(v VID) []VID {
	return o.outAdj[o.parent.outOff[v]:o.parent.outOff[v+1]]
}

// InNeighbors returns the overlay's in-adjacency of v, sorted ascending.
// Callers must not modify the returned slice.
func (o *Overlay) InNeighbors(v VID) []VID {
	return o.inAdj[o.parent.inOff[v]:o.parent.inOff[v+1]]
}

// OutDegree equals the parent's out-degree: the offsets are shared.
func (o *Overlay) OutDegree(v VID) int { return o.parent.OutDegree(v) }

// InDegree equals the parent's in-degree.
func (o *Overlay) InDegree(v VID) int { return o.parent.InDegree(v) }

// Degree equals the parent's degree.
func (o *Overlay) Degree(v VID) int { return o.parent.Degree(v) }

// DegreeSequence equals the parent's degree sequence.
func (o *Overlay) DegreeSequence() []int { return o.parent.DegreeSequence() }

// HasEdge reports whether the overlay contains the arc (u,v) (directed)
// or edge {u,v} (undirected). Runs in O(log deg(u)).
func (o *Overlay) HasEdge(u, v VID) bool {
	adj := o.OutNeighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// FillFromEdges overwrites the overlay's adjacency with the given edge
// list, which must be simple and realize exactly the parent's per-vertex
// degree sequence (out- and in-degrees for directed parents). Rows are
// re-sorted ascending, preserving the Graph adjacency invariant. The
// edges slice is not retained.
//
// The degree check is exact: an edge list that would overflow any CSR row
// returns an error before corrupting neighboring rows, and underfull rows
// are reported after placement.
func (o *Overlay) FillFromEdges(edges []Edge) error {
	g := o.parent
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
	return nil
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

// Materialize builds an immutable Graph equal to the overlay's current
// contents, carrying the parent's external IDs. Intended for callers that
// need to hand a sample to APIs requiring a concrete *Graph; the hot
// sampling paths never call it.
func (o *Overlay) Materialize() (*Graph, error) {
	g := o.parent
	b := NewBuilder(g.directed)
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.ExternalID(VID(v)))
	}
	n := VID(g.NumVertices())
	for u := VID(0); u < n; u++ {
		for _, v := range o.OutNeighbors(u) {
			if !g.directed && v < u {
				continue
			}
			b.AddEdge(g.ExternalID(u), g.ExternalID(v))
		}
	}
	return b.Build()
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
	if o.parent != a.parent {
		panic("graph: OverlayArena.Put of overlay with a different parent")
	}
	a.pool.Put(o)
}
