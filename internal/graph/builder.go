package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrEmptyGraph is returned by Build when no vertices were added.
var ErrEmptyGraph = errors.New("graph: build of empty graph")

// Edge-buffer chunk sizes: the first chunk holds minEdgeChunk edges and
// each later one twice its predecessor, up to maxEdgeChunk. A full chunk
// is kept as it is, so no edge is copied while the buffer grows.
const (
	minEdgeChunk = 256
	maxEdgeChunk = 1 << 16
)

// rankTableSlack bounds the flat rank table Build uses: IDs are ranked
// through a table of one VID per ID in [lo, hi] when that span is below
// rankTableSlack times the number of ID references, and by sorting the
// distinct IDs otherwise.
const rankTableSlack = 4

// Builder accumulates vertices and edges identified by external int64 IDs
// and produces an immutable Graph. It buffers the isolated IDs and the
// non-loop edges; Build ranks the IDs and fills the CSR rows by counting
// sort. Duplicate edges and self-loops are dropped. The zero Builder is
// not valid; use NewBuilder.
type Builder struct {
	directed bool
	vertices []int64
	full     [][][2]int64 // filled edge chunks in insertion order
	cur      [][2]int64   // the chunk being filled
}

// NewBuilder returns a Builder for a directed or undirected graph.
func NewBuilder(directed bool) *Builder {
	return &Builder{directed: directed}
}

// Directed reports the edge type the Builder was created with.
func (b *Builder) Directed() bool { return b.directed }

// AddVertex registers an isolated vertex. Vertices referenced by AddEdge
// are registered implicitly; AddVertex is only needed for degree-0
// vertices.
func (b *Builder) AddVertex(id int64) {
	b.vertices = append(b.vertices, id)
}

// AddEdge registers the arc (u,v) (directed) or edge {u,v} (undirected).
// Self-loops are ignored. Duplicates are deduplicated at Build time.
func (b *Builder) AddEdge(u, v int64) {
	if u == v {
		return
	}
	if len(b.cur) == cap(b.cur) {
		b.newChunk()
	}
	b.cur = append(b.cur, [2]int64{u, v})
}

// newChunk retires the full current chunk and starts one twice its size.
func (b *Builder) newChunk() {
	if b.cur != nil {
		b.full = append(b.full, b.cur)
	}
	b.cur = make([][2]int64, 0, min(max(2*cap(b.cur), minEdgeChunk), maxEdgeChunk))
}

// Build constructs the immutable Graph. External IDs are assigned dense
// indices in ascending ID order, so construction is deterministic for a
// given edge multiset regardless of insertion order. The buffer is left
// as it is: more vertices and edges may be added and Build called again.
func (b *Builder) Build() (*Graph, error) {
	chunks := append(b.full[:len(b.full):len(b.full)], b.cur)
	ids, from, to, err := b.rank(chunks)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, ErrEmptyGraph
	}
	return fill(b.directed, ids, from, to)
}

// FromArcs builds the graph on the vertices ids, which must be strictly
// ascending: VID i is the vertex ids[i]. The arcs from[k]→to[k] (edges,
// when undirected) are given as VIDs. Self-loops and duplicate arcs are
// dropped, as Builder drops them. The graph keeps ids, so callers must
// not modify it afterwards; it may be shared with other graphs.
func FromArcs(directed bool, ids []int64, from, to []VID) (*Graph, error) {
	n := len(ids)
	switch {
	case n == 0:
		return nil, ErrEmptyGraph
	case n > math.MaxInt32:
		return nil, errTooManyVertices
	case len(from) != len(to):
		return nil, fmt.Errorf("graph: %d arc sources for %d targets", len(from), len(to))
	}
	for i := 1; i < n; i++ {
		if ids[i] <= ids[i-1] {
			return nil, fmt.Errorf("graph: vertex IDs not strictly ascending at index %d (%d after %d)", i, ids[i], ids[i-1])
		}
	}
	for k := range from {
		if uint32(from[k]) >= uint32(n) || uint32(to[k]) >= uint32(n) {
			return nil, fmt.Errorf("graph: arc %d (%d→%d) outside the %d vertices", k, from[k], to[k], n)
		}
	}
	return fill(directed, ids, from, to)
}

// fill builds the graph on ids from arcs known to be in range.
func fill(directed bool, ids []int64, from, to []VID) (*Graph, error) {
	g := &Graph{directed: directed, ids: ids}
	g.outOff, g.outAdj = csr(len(ids), from, to, !directed)
	if directed {
		g.inOff, g.inAdj = transpose(g.outOff, g.outAdj)
		g.m = int64(len(g.outAdj))
	} else {
		g.inOff, g.inAdj = g.outOff, g.outAdj
		g.m = int64(len(g.outAdj)) / 2
	}
	if err := g.fillDegrees(); err != nil {
		return nil, err
	}
	return g, nil
}

// rank assigns the buffered IDs dense indices in ascending ID order. It
// returns the ids table and every buffered edge's endpoints as indices.
// IDs spanning a range close to their count are ranked through a flat
// presence table; sparse IDs are sorted, compacted and binary-searched.
func (b *Builder) rank(chunks [][][2]int64) (ids []int64, from, to []VID, err error) {
	m := 0
	for _, c := range chunks {
		m += len(c)
	}
	refs := len(b.vertices) + 2*m
	if refs == 0 {
		return nil, nil, nil, nil
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, id := range b.vertices {
		lo, hi = min(lo, id), max(hi, id)
	}
	for _, c := range chunks {
		for _, e := range c {
			lo, hi = min(lo, e[0], e[1]), max(hi, e[0], e[1])
		}
	}
	from, to = make([]VID, m), make([]VID, m)

	// The span is computed in uint64 so that it cannot overflow.
	if span := uint64(hi) - uint64(lo); span < rankTableSlack*uint64(refs) {
		table := make([]VID, span+1) // presence marks, then ranks
		for _, id := range b.vertices {
			table[uint64(id)-uint64(lo)] = 1
		}
		for _, c := range chunks {
			for _, e := range c {
				table[uint64(e[0])-uint64(lo)] = 1
				table[uint64(e[1])-uint64(lo)] = 1
			}
		}
		n := 0
		for _, present := range table {
			n += int(present)
		}
		if n > math.MaxInt32 {
			return nil, nil, nil, errTooManyVertices
		}
		ids = make([]int64, 0, n)
		for i, present := range table {
			if present != 0 {
				table[i] = VID(len(ids))
				ids = append(ids, lo+int64(i))
			}
		}
		k := 0
		for _, c := range chunks {
			for _, e := range c {
				from[k], to[k] = table[uint64(e[0])-uint64(lo)], table[uint64(e[1])-uint64(lo)]
				k++
			}
		}
		return ids, from, to, nil
	}

	all := make([]int64, 0, refs)
	all = append(all, b.vertices...)
	for _, c := range chunks {
		for _, e := range c {
			all = append(all, e[0], e[1])
		}
	}
	slices.Sort(all)
	all = slices.Compact(all)
	if len(all) > math.MaxInt32 {
		return nil, nil, nil, errTooManyVertices
	}
	// A copy of exact size, so the graph does not keep the gathered refs.
	ids = append(make([]int64, 0, len(all)), all...)
	k := 0
	for _, c := range chunks {
		for _, e := range c {
			u, _ := slices.BinarySearch(ids, e[0])
			v, _ := slices.BinarySearch(ids, e[1])
			from[k], to[k] = VID(u), VID(v)
			k++
		}
	}
	return ids, from, to, nil
}

// errTooManyVertices rejects a vertex set that VID cannot index.
var errTooManyVertices = fmt.Errorf("graph: more than %d vertices", math.MaxInt32)

// csr fills the CSR rows of the arcs from[i]→to[i] over n vertices, and
// of their reverses too when both is set. Two counting-sort scatters
// leave every row ascending without a comparison sort: the first groups
// the sources by target, the second (transpose) visits the targets in
// ascending order and appends each to its sources' rows. Between the
// two, each group drops its self-loop and repeated sources, so the
// second scatter fills an adjacency of exactly the final size.
func csr(n int, from, to []VID, both bool) ([]int64, []VID) {
	off := make([]int64, n+1)
	for _, v := range to {
		off[v+1]++
	}
	if both {
		for _, u := range from {
			off[u+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	next := startCursors(off)
	src := make([]VID, off[n])
	for i, v := range to {
		u := from[i]
		src[next[v]] = u
		next[v]++
		if both {
			src[next[u]] = v
			next[u]++
		}
	}
	// seen[u] == v+1 once group v holds source u. A group's writes never
	// pass its own unread entries, so one left-to-right pass compacts.
	seen := make([]VID, n)
	var w int64
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		off[v] = w
		for _, u := range src[lo:hi] {
			if u != VID(v) && seen[u] != VID(v)+1 {
				seen[u] = VID(v) + 1
				src[w] = u
				w++
			}
		}
	}
	off[n] = w
	return transpose(off, src[:w])
}

// transpose returns the CSR of the reverse arcs of (off, adj): row v
// lists every u whose row holds v, in ascending order because the rows
// u are visited in order.
func transpose(off []int64, adj []VID) ([]int64, []VID) {
	n := len(off) - 1
	tOff := make([]int64, n+1)
	for _, v := range adj {
		tOff[v+1]++
	}
	for v := 0; v < n; v++ {
		tOff[v+1] += tOff[v]
	}
	next := startCursors(tOff)
	tAdj := make([]VID, len(adj))
	for u := 0; u < n; u++ {
		for _, v := range adj[off[u]:off[u+1]] {
			tAdj[next[v]] = VID(u)
			next[v]++
		}
	}
	return tOff, tAdj
}

// FromEdges is a convenience constructor building a graph directly from a
// dense edge list of external IDs.
func FromEdges(directed bool, edges [][2]int64) (*Graph, error) {
	b := NewBuilder(directed)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
