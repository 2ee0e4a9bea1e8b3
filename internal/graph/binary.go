package graph

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"
)

// binaryVersion guards the on-disk layout of WriteBinary.
const binaryVersion = 1

// ErrBadBinary is returned when a binary graph stream is malformed or of
// an unsupported version.
var ErrBadBinary = errors.New("graph: malformed binary graph")

// binaryGraph is the gob DTO mirroring the CSR layout. Text edge lists
// (package dataset) are the interchange format; the binary form exists
// for fast reload of large graphs, restoring the CSR arrays directly
// instead of re-sorting edges.
type binaryGraph struct {
	Version  int
	Directed bool
	IDs      []int64
	OutOff   []int64
	OutAdj   []VID
	InOff    []int64 // nil for undirected (aliases out)
	InAdj    []VID
	M        int64
}

// WriteBinary serializes the graph in a compact binary form.
func WriteBinary(w io.Writer, g *Graph) error {
	dto := binaryGraph{
		Version:  binaryVersion,
		Directed: g.directed,
		IDs:      g.ids,
		OutOff:   g.outOff,
		OutAdj:   g.outAdj,
		M:        g.m,
	}
	if g.directed {
		dto.InOff = g.inOff
		dto.InAdj = g.inAdj
	}
	if err := gob.NewEncoder(w).Encode(dto); err != nil {
		return fmt.Errorf("encode binary graph: %w", err)
	}
	return nil
}

// ReadBinary reads a graph written by WriteBinary and validates its
// structural invariants before returning it: ascending IDs, well-formed
// CSR offsets, strictly ascending loop-free rows, an edge count matching
// the adjacency, and in-rows that are exactly the transposed out-rows
// (symmetric rows for an undirected graph).
func ReadBinary(r io.Reader) (*Graph, error) {
	var dto binaryGraph
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("decode binary graph: %w", err)
	}
	if dto.Version != binaryVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadBinary, dto.Version, binaryVersion)
	}
	n := len(dto.IDs)
	g := &Graph{
		directed: dto.Directed,
		ids:      dto.IDs,
		outOff:   dto.OutOff,
		outAdj:   dto.OutAdj,
		inOff:    dto.OutOff,
		inAdj:    dto.OutAdj,
		m:        dto.M,
	}
	for i, id := range dto.IDs {
		if i > 0 && id <= dto.IDs[i-1] {
			return nil, fmt.Errorf("%w: IDs not strictly ascending", ErrBadBinary)
		}
	}
	if err := checkCSR(g.outOff, g.outAdj, n, "out"); err != nil {
		return nil, err
	}
	arcs := 2 * dto.M // undirected rows store every edge twice
	if dto.Directed {
		g.inOff, g.inAdj = dto.InOff, dto.InAdj
		if err := checkCSR(g.inOff, g.inAdj, n, "in"); err != nil {
			return nil, err
		}
		arcs = dto.M
	}
	if dto.M < 0 || int64(len(g.outAdj)) != arcs || int64(len(g.inAdj)) != arcs {
		return nil, fmt.Errorf("%w: adjacency holds %d arcs for %d edges", ErrBadBinary, len(g.outAdj), dto.M)
	}
	if !transposed(g.outOff, g.outAdj, g.inOff, g.inAdj) {
		return nil, fmt.Errorf("%w: in-rows are not the transposed out-rows", ErrBadBinary)
	}
	if err := g.fillDegrees(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBinary, err)
	}
	return g, nil
}

// checkCSR validates one CSR direction over n vertices: offsets start at
// 0, never decrease and end at len(adj), and every row is strictly
// ascending, loop-free and in range.
func checkCSR(off []int64, adj []VID, n int, dir string) error {
	if len(off) != n+1 || off[0] != 0 || off[n] != int64(len(adj)) {
		return fmt.Errorf("%w: %s offsets do not span the adjacency", ErrBadBinary, dir)
	}
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return fmt.Errorf("%w: decreasing %s offsets at %d", ErrBadBinary, dir, v)
		}
	}
	for v := 0; v < n; v++ {
		row := adj[off[v]:off[v+1]]
		for i, w := range row {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("%w: %s adjacency target %d out of range", ErrBadBinary, dir, w)
			}
			if w == VID(v) || (i > 0 && row[i-1] >= w) {
				return fmt.Errorf("%w: %s row %d is not strictly ascending and loop-free", ErrBadBinary, dir, v)
			}
		}
	}
	return nil
}

// transposed reports whether every arc u→w of (off, adj) appears as w→u
// in (tOff, tAdj). Both sides having duplicate-free rows and the same
// arc count makes the second exactly the transpose of the first.
func transposed(off []int64, adj []VID, tOff []int64, tAdj []VID) bool {
	for u := 0; u+1 < len(off); u++ {
		for _, w := range adj[off[u]:off[u+1]] {
			if _, ok := slices.BinarySearch(tAdj[tOff[w]:tOff[w+1]], VID(u)); !ok {
				return false
			}
		}
	}
	return true
}
