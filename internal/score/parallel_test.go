package score

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/par/partest"
)

// randomGroups draws k random groups over the graph.
func randomGroups(rng *rand.Rand, g *graph.Graph, k int) []Group {
	groups := make([]Group, k)
	for i := range groups {
		size := 1 + rng.Intn(8)
		members := make([]graph.VID, 0, size)
		seen := map[graph.VID]bool{}
		for len(members) < size {
			v := graph.VID(rng.Intn(g.NumVertices()))
			if !seen[v] {
				seen[v] = true
				members = append(members, v)
			}
		}
		groups[i] = Group{Name: "g", Members: members}
	}
	return groups
}

func TestEvaluateGroupsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	edges := make([][2]int64, 400)
	for i := range edges {
		edges[i] = [2]int64{rng.Int63n(60), rng.Int63n(60)}
	}
	g, err := graph.FromEdges(true, edges)
	if err != nil {
		t.Fatal(err)
	}
	groups := randomGroups(rng, g, 40)
	fns := AllFuncs()
	ctx := NewContext(g)

	serial := EvaluateGroups(ctx, groups, fns)
	for _, workers := range []int{1, 2, 7} {
		partest.GOMAXPROCS(t, workers)
		parallel := EvaluateGroupsParallel(NewContext(g), groups, fns)
		for _, f := range fns {
			for i := range groups {
				if serial[f.Name][i] != parallel[f.Name][i] {
					t.Fatalf("workers=%d: %s[%d] = %v, serial %v",
						workers, f.Name, i, parallel[f.Name][i], serial[f.Name][i])
				}
			}
		}
	}
}

func TestEvaluateGroupsParallelEmpty(t *testing.T) {
	g, err := graph.FromEdges(true, [][2]int64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	out := EvaluateGroupsParallel(NewContext(g), nil, PaperFuncs())
	for name, scores := range out {
		if len(scores) != 0 {
			t.Errorf("%s has %d scores for no groups", name, len(scores))
		}
	}
}

// Property: parallel evaluation is deterministic and equal to serial for
// arbitrary graphs and GOMAXPROCS values.
func TestQuickParallelEqualsSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		edges := make([][2]int64, 60)
		for i := range edges {
			edges[i] = [2]int64{rng.Int63n(20), rng.Int63n(20)}
		}
		g, err := graph.FromEdges(seed%2 == 0, edges)
		if err != nil {
			return true
		}
		groups := randomGroups(rng, g, 1+rng.Intn(12))
		fns := PaperFuncs()
		serial := EvaluateGroups(NewContext(g), groups, fns)
		partest.GOMAXPROCS(t, 1+rng.Intn(8))
		parallel := EvaluateGroupsParallel(NewContext(g), groups, fns)
		for _, f := range fns {
			for i := range groups {
				if serial[f.Name][i] != parallel[f.Name][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNeedsMedianDeclared pins the declarative median dependency: FOMD
// is the one registry function reading Context.MedianDegree, and the
// parallel evaluator relies on the flag rather than name sniffing.
func TestNeedsMedianDeclared(t *testing.T) {
	for _, f := range AllFuncs() {
		wantNeeds := f.Name == "fomd"
		if f.NeedsMedian != wantNeeds {
			t.Errorf("%s: NeedsMedian = %v, want %v", f.Name, f.NeedsMedian, wantNeeds)
		}
	}
}

// TestContextConcurrentLazyCaches hits the lazily computed context
// caches (median degree, Chung-Lu degree tables) from many goroutines
// under -race.
func TestContextConcurrentLazyCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	edges := make([][2]int64, 300)
	for i := range edges {
		edges[i] = [2]int64{rng.Int63n(50), rng.Int63n(50)}
	}
	g, err := graph.FromEdges(true, edges)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(g)
	set := graph.SetOf(g, []graph.VID{1, 2, 3, 4, 5})
	wantMed := NewContext(g).MedianDegree()
	wantExp := NewContext(g).ChungLuExpectation(set)

	done := make(chan [2]float64, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- [2]float64{ctx.MedianDegree(), ctx.ChungLuExpectation(set)} }()
	}
	for i := 0; i < 8; i++ {
		got := <-done
		if got[0] != wantMed || got[1] != wantExp {
			t.Errorf("concurrent caches: got (%v, %v), want (%v, %v)", got[0], got[1], wantMed, wantExp)
		}
	}
}
