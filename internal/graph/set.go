package graph

import "sort"

// Set is a set of dense vertex indices backed by a bitmap plus a member
// slice, sized for repeated membership tests during scoring. The zero Set
// is not usable; construct with NewSet.
type Set struct {
	words   []uint64
	members []VID
}

// NewSet returns an empty Set able to hold vertices in [0, n).
func NewSet(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// SetOf builds a Set over g's vertex range from the given members.
// Duplicate members are ignored.
func SetOf(g *Graph, members []VID) *Set {
	s := NewSet(g.NumVertices())
	for _, v := range members {
		s.Add(v)
	}
	return s
}

// Add inserts v. Adding an existing member is a no-op.
func (s *Set) Add(v VID) {
	w, bit := v>>6, uint64(1)<<(uint(v)&63)
	if s.words[w]&bit != 0 {
		return
	}
	s.words[w] |= bit
	s.members = append(s.members, v)
}

// Contains reports membership of v.
func (s *Set) Contains(v VID) bool {
	return s.words[v>>6]&(uint64(1)<<(uint(v)&63)) != 0
}

// Len returns the number of members, n_C in the paper's nomenclature.
func (s *Set) Len() int { return len(s.members) }

// Members returns the member slice in insertion order. Callers must not
// modify it.
func (s *Set) Members() []VID { return s.members }

// SortedMembers returns a fresh, ascending copy of the members.
func (s *Set) SortedMembers() []VID {
	out := make([]VID, len(s.members))
	copy(out, s.members)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clear empties the set while retaining capacity, allowing reuse across
// many groups without reallocating the bitmap.
func (s *Set) Clear() {
	for _, v := range s.members {
		s.words[v>>6] &^= uint64(1) << (uint(v) & 63)
	}
	s.members = s.members[:0]
}

// Fill replaces the set contents with the given members.
func (s *Set) Fill(members []VID) {
	s.Clear()
	for _, v := range members {
		s.Add(v)
	}
}

// CutStats holds the edge statistics of a vertex set C within a graph,
// using the paper's nomenclature (Table I).
type CutStats struct {
	N         int   // n_C: vertices in C
	Internal  int64 // m_C: edges (arcs) with both endpoints in C
	Boundary  int64 // c_C: edges (arcs) with exactly one endpoint in C
	DegreeSum int64 // sum of d(v) over v in C
}

// Cut computes the internal/boundary edge statistics of the set within g.
// g may be an Overlay's graph, so null-model samples are scored without
// materializing them.
//
// For directed graphs, Internal counts arcs with both endpoints in C and
// Boundary counts arcs with exactly one endpoint in C (in either
// direction). For undirected graphs the counts are in edges. This is the
// single primitive all four scoring functions are built on.
//
// Only the out-rows are scanned. Every arc incident to C is internal or
// boundary, and an internal arc adds two to DegreeSum where a boundary
// arc adds one, so Boundary = DegreeSum − 2·Internal. An internal arc
// lies in the out-row of one member (directed) or of both (undirected).
// The membership test adds the bitmap bit instead of branching on it,
// because whether a neighbour is a member is hard to predict.
func Cut(g *Graph, s *Set) CutStats {
	var st CutStats
	st.N = s.Len()
	var hits int64 // member entries in the members' out-rows
	words := s.words
	for _, u := range s.members {
		st.DegreeSum += int64(g.Degree(u))
		for _, v := range g.OutNeighbors(u) {
			hits += int64(words[uint32(v)>>6] >> (uint32(v) & 63) & 1)
		}
	}
	st.Internal = hits
	if !g.directed {
		st.Internal /= 2
	}
	st.Boundary = st.DegreeSum - 2*st.Internal
	return st
}
