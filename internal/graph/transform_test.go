package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUndirectedProjectionCollapsesBidirectional(t *testing.T) {
	g, err := FromEdges(true, [][2]int64{{1, 2}, {2, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Undirected(g)
	if err != nil {
		t.Fatal(err)
	}
	if u.Directed() {
		t.Error("projection still directed")
	}
	if u.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (pair collapsed)", u.NumEdges())
	}
	if u.NumVertices() != g.NumVertices() {
		t.Errorf("vertex count changed: %d -> %d", g.NumVertices(), u.NumVertices())
	}
}

func TestUndirectedPreservesExternalIDs(t *testing.T) {
	g, err := FromEdges(true, [][2]int64{{100, 200}})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Undirected(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := u.Lookup(100); !ok {
		t.Error("external ID 100 lost in projection")
	}
	if _, ok := u.Lookup(200); !ok {
		t.Error("external ID 200 lost in projection")
	}
}

func TestReciprocalEdgeCount(t *testing.T) {
	g, err := FromEdges(true, [][2]int64{{1, 2}, {2, 1}, {2, 3}, {3, 4}, {4, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ReciprocalEdgeCount(g); got != 4 {
		t.Errorf("ReciprocalEdgeCount = %d, want 4", got)
	}
}

// TestReciprocalEdgeCountMatchesHasEdge checks the row-merge count
// against the per-arc HasEdge oracle on random directed graphs, from
// sparse ones to reciprocal-heavy ones where most arcs come in pairs.
func TestReciprocalEdgeCountMatchesHasEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(50)
		pairs := randomPairs(rng, n, rng.Intn(8*n))
		if trial%2 == 1 {
			for _, p := range pairs[:len(pairs)*3/4] {
				pairs = append(pairs, [2]int64{p[1], p[0]})
			}
		}
		g, err := FromEdges(true, pairs)
		if err != nil {
			continue // only self-loops were drawn
		}
		var want int64
		g.Edges(func(e Edge) bool {
			if g.HasEdge(e.To, e.From) {
				want++
			}
			return true
		})
		if got := ReciprocalEdgeCount(g); got != want {
			t.Fatalf("trial %d: ReciprocalEdgeCount = %d, HasEdge oracle %d", trial, got, want)
		}
	}
}

func TestSubgraphKnown(t *testing.T) {
	g, err := FromEdges(true, [][2]int64{{1, 2}, {2, 3}, {3, 1}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	var members []VID
	for _, ext := range []int64{1, 2, 3} {
		v, _ := g.Lookup(ext)
		members = append(members, v)
	}
	sub, err := Subgraph(g, members)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", sub.NumVertices())
	}
	if sub.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3 (3->4 dropped)", sub.NumEdges())
	}
}

// Property: undirected projection preserves reachability-relevant counts:
// m_undirected = m_directed - reciprocal/2, and degrees never increase
// beyond the directed total degree.
func TestQuickUndirectedEdgeCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEdges(true, randomEdges(rng, 22, 80))
		if err != nil {
			return true
		}
		u, err := Undirected(g)
		if err != nil {
			return false
		}
		recip := ReciprocalEdgeCount(g)
		return u.NumEdges() == g.NumEdges()-recip/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: subgraph of the full vertex set is the identity on
// vertex/edge counts.
func TestQuickSubgraphFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		g, err := FromEdges(directed, randomEdges(rng, 15, 45))
		if err != nil {
			return true
		}
		sub, err := Subgraph(g, g.Vertices())
		if err != nil {
			return false
		}
		return sub.NumVertices() == g.NumVertices() && sub.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every edge of an induced subgraph exists in the parent.
func TestQuickSubgraphEdgesExistInParent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEdges(true, randomEdges(rng, 20, 60))
		if err != nil {
			return true
		}
		var members []VID
		for v := 0; v < g.NumVertices(); v++ {
			if rng.Intn(2) == 0 {
				members = append(members, VID(v))
			}
		}
		if len(members) == 0 {
			return true
		}
		sub, err := Subgraph(g, members)
		if err != nil {
			return false
		}
		ok := true
		sub.Edges(func(e Edge) bool {
			pu, _ := g.Lookup(sub.ExternalID(e.From))
			pv, _ := g.Lookup(sub.ExternalID(e.To))
			if !g.HasEdge(pu, pv) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
