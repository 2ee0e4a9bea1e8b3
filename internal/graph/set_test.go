package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(100)
	if s.Len() != 0 {
		t.Fatalf("empty set Len = %d", s.Len())
	}
	s.Add(5)
	s.Add(70)
	s.Add(5) // duplicate
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(5) || !s.Contains(70) || s.Contains(6) {
		t.Error("Contains gives wrong answers")
	}
	s.Clear()
	if s.Len() != 0 || s.Contains(5) {
		t.Error("Clear did not empty the set")
	}
}

func TestSetFillAndSortedMembers(t *testing.T) {
	s := NewSet(64)
	s.Fill([]VID{9, 3, 7, 3})
	got := s.SortedMembers()
	want := []VID{3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("SortedMembers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedMembers = %v, want %v", got, want)
		}
	}
}

// A known directed example: 4-vertex graph, C = {0,1}.
//
//	0 -> 1, 1 -> 0 (internal pair)
//	1 -> 2 (boundary out), 3 -> 0 (boundary in), 2 -> 3 (external only)
func TestCutDirectedKnown(t *testing.T) {
	g, err := FromEdges(true, [][2]int64{{0, 1}, {1, 0}, {1, 2}, {3, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var members []VID
	for _, ext := range []int64{0, 1} {
		v, _ := g.Lookup(ext)
		members = append(members, v)
	}
	st := Cut(g, SetOf(g, members))
	if st.N != 2 {
		t.Errorf("N = %d, want 2", st.N)
	}
	if st.Internal != 2 {
		t.Errorf("Internal = %d, want 2", st.Internal)
	}
	if st.Boundary != 2 {
		t.Errorf("Boundary = %d, want 2", st.Boundary)
	}
	// d(0)=out1+in2=3, d(1)=out2+in1=3
	if st.DegreeSum != 6 {
		t.Errorf("DegreeSum = %d, want 6", st.DegreeSum)
	}
}

// A known undirected example: path 0-1-2-3, C = {1,2}.
func TestCutUndirectedKnown(t *testing.T) {
	g, err := FromEdges(false, [][2]int64{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := g.Lookup(1)
	v2, _ := g.Lookup(2)
	st := Cut(g, SetOf(g, []VID{v1, v2}))
	if st.Internal != 1 {
		t.Errorf("Internal = %d, want 1", st.Internal)
	}
	if st.Boundary != 2 {
		t.Errorf("Boundary = %d, want 2", st.Boundary)
	}
	if st.DegreeSum != 4 {
		t.Errorf("DegreeSum = %d, want 4", st.DegreeSum)
	}
}

// Property: for any set C in a directed graph, the edge scan, which
// counts Internal and Boundary arc by arc, satisfies
// sum of degrees in C = 2*Internal + Boundary, and Cut agrees with it.
// Cut derives Boundary from this identity, so it is checked on the scan.
func TestQuickCutDegreeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEdges(true, randomEdges(rng, 20, 70))
		if err != nil {
			return true
		}
		// Random subset of about half the vertices.
		var members []VID
		for v := 0; v < g.NumVertices(); v++ {
			if rng.Intn(2) == 0 {
				members = append(members, VID(v))
			}
		}
		s := SetOf(g, members)
		ref := cutByEdgeScan(g, s)
		return ref.DegreeSum == 2*ref.Internal+ref.Boundary && Cut(g, s) == ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the same holds for undirected graphs and dense sets of about
// two thirds of the vertices, where most edges are internal.
func TestQuickCutDegreeIdentityUndirected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEdges(false, randomEdges(rng, 18, 60))
		if err != nil {
			return true
		}
		var members []VID
		for v := 0; v < g.NumVertices(); v++ {
			if rng.Intn(3) != 0 {
				members = append(members, VID(v))
			}
		}
		s := SetOf(g, members)
		ref := cutByEdgeScan(g, s)
		return ref.DegreeSum == 2*ref.Internal+ref.Boundary && Cut(g, s) == ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cut over the full vertex set has Internal = m, Boundary = 0.
func TestQuickCutFullSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		g, err := FromEdges(directed, randomEdges(rng, 16, 50))
		if err != nil {
			return true
		}
		st := Cut(g, SetOf(g, g.Vertices()))
		return st.Internal == g.NumEdges() && st.Boundary == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// cutByEdgeScan is the reference for Cut: it classifies every arc (or
// edge) of g by how many of its endpoints lie in the set.
func cutByEdgeScan(g *Graph, s *Set) CutStats {
	st := CutStats{N: s.Len()}
	for _, u := range s.Members() {
		st.DegreeSum += int64(g.Degree(u))
	}
	g.Edges(func(e Edge) bool {
		from, to := s.Contains(e.From), s.Contains(e.To)
		if from && to {
			st.Internal++
		} else if from != to {
			st.Boundary++
		}
		return true
	})
	return st
}

// Property: Cut, which scans only the members' out-rows, agrees with a
// scan of every edge, directed and undirected.
func TestQuickCutMatchesEdgeScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEdges(seed%2 == 0, randomEdges(rng, 20, 70))
		if err != nil {
			return true
		}
		var members []VID
		for v := 0; v < g.NumVertices(); v++ {
			if rng.Intn(2) == 0 {
				members = append(members, VID(v))
			}
		}
		s := SetOf(g, members)
		return Cut(g, s) == cutByEdgeScan(g, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
