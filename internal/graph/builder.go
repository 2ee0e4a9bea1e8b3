package graph

import "errors"

// ErrEmptyGraph is returned by Build when no vertices were added.
var ErrEmptyGraph = errors.New("graph: build of empty graph")

// Builder accumulates vertices and edges identified by external int64 IDs
// and produces an immutable Graph. It is a thin façade over a sparse-mode
// StreamBuilder: it buffers the isolated IDs and the non-loop edges, and
// Build replays them as the stream builder's two passes. Duplicate edges
// and self-loops are dropped. The zero Builder is not valid; use
// NewBuilder.
type Builder struct {
	directed bool
	vertices []int64
	edges    [][2]int64
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
	if u != v {
		b.edges = append(b.edges, [2]int64{u, v})
	}
}

// Build constructs the immutable Graph. External IDs are assigned dense
// indices in ascending ID order, so construction is deterministic for a
// given edge multiset regardless of insertion order.
func (b *Builder) Build() (*Graph, error) {
	sb, err := NewStreamBuilder(b.directed, StreamOptions{})
	if err != nil {
		return nil, err
	}
	stream := func() {
		for _, id := range b.vertices {
			sb.AddVertex(id)
		}
		for _, e := range b.edges {
			sb.AddEdge(e[0], e[1])
		}
	}
	stream()
	if err := sb.Rewind(); err != nil {
		return nil, err
	}
	stream()
	return sb.Finish()
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
