package detect

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/score"
)

func TestConductanceSweepFindsClique(t *testing.T) {
	g, truth := twoCliques(t)
	seed := truth[0][0]
	grp, cond, err := ConductanceSweep(g, seed, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The best-conductance set around a clique member is the clique:
	// 5 members, one bridge edge -> conductance 1/(2*10+1).
	if len(grp.Members) != 5 {
		t.Fatalf("sweep found %d members, want 5", len(grp.Members))
	}
	want := 1.0 / 21.0
	if math.Abs(cond-want) > 1e-12 {
		t.Errorf("conductance = %v, want %v", cond, want)
	}
	inClique := map[graph.VID]bool{}
	for _, v := range truth[0] {
		inClique[v] = true
	}
	for _, v := range grp.Members {
		if !inClique[v] {
			t.Errorf("member %d outside the seed clique", v)
		}
	}
}

func TestConductanceSweepBadSeed(t *testing.T) {
	g, _ := twoCliques(t)
	if _, _, err := ConductanceSweep(g, -1, 200); !errors.Is(err, ErrBadSeed) {
		t.Errorf("err = %v, want ErrBadSeed", err)
	}
	if _, _, err := ConductanceSweep(g, graph.VID(g.NumVertices()), 200); !errors.Is(err, ErrBadSeed) {
		t.Errorf("err = %v, want ErrBadSeed", err)
	}
}

func TestConductanceSweepRespectsMaxSize(t *testing.T) {
	// A long path: cap the exploration.
	b := graph.NewBuilder(false)
	for i := int64(0); i < 50; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	seed, _ := g.Lookup(25)
	grp, _, err := ConductanceSweep(g, seed, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(grp.Members) > 10 {
		t.Errorf("sweep exceeded MaxSize: %d", len(grp.Members))
	}
}

// TestSweepConductanceMatchesScore cross-checks the incremental
// conductance bookkeeping against the score package on the final set.
func TestSweepConductanceMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	edges := make([][2]int64, 300)
	for i := range edges {
		edges[i] = [2]int64{rng.Int63n(40), rng.Int63n(40)}
	}
	g, err := graph.FromEdges(true, edges)
	if err != nil {
		t.Fatal(err)
	}
	grp, cond, err := ConductanceSweep(g, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	ctx := score.NewContext(g)
	check := score.Evaluate(ctx, grp.Members, []score.Func{score.Conductance()})["conductance"]
	if math.Abs(check-cond) > 1e-12 {
		t.Errorf("incremental conductance %v != scored %v", cond, check)
	}
}

// TestSweepConductanceEdgelessSet pins the one input on which the sweep
// formula and score.Conductance differ: a set with no incident edge
// scores 1, the worst, in a sweep but 0 under score.Conductance.
func TestSweepConductanceEdgelessSet(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddEdge(1, 2)
	b.AddVertex(3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := graphalgo.SweepConductance(0, 0); got != 1 {
		t.Fatalf("SweepConductance(0, 0) = %v, want 1", got)
	}
	isolated, _ := g.Lookup(3)
	grp, cond, err := ConductanceSweep(g, isolated, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(grp.Members) != 1 || cond != 1 {
		t.Fatalf("sweep from an isolated seed = (%v, %v), want ([%d], 1)", grp.Members, cond, isolated)
	}
	scored := score.Evaluate(score.NewContext(g), grp.Members, []score.Func{score.Conductance()})["conductance"]
	if scored != 0 {
		t.Fatalf("score.Conductance of an edgeless set = %v, want 0", scored)
	}
}

// referenceSweep is the greedy sweep as first written, kept as the
// oracle for ConductanceSweep: it rescans every frontier vertex's
// adjacency with Set.Contains at every step.
func referenceSweep(g *graph.Graph, seed graph.VID, maxSize int) (score.Group, float64) {
	set := graph.NewSet(g.NumVertices())
	set.Add(seed)
	cut := graph.Cut(g, set)
	internal := cut.Internal
	boundary := cut.Boundary
	order := []graph.VID{seed}
	bestPrefix := 1
	bestCond := graphalgo.SweepConductance(internal, boundary)

	inFrontier := graph.NewSet(g.NumVertices())
	addFrontier := func(u graph.VID) {
		push := func(w graph.VID) {
			if !set.Contains(w) && !inFrontier.Contains(w) {
				inFrontier.Add(w)
			}
		}
		for _, w := range g.OutNeighbors(u) {
			push(w)
		}
		if g.Directed() {
			for _, w := range g.InNeighbors(u) {
				push(w)
			}
		}
	}
	addFrontier(seed)

	delta := func(w graph.VID) (dInternal, dBoundary int64) {
		var linksIn int64
		for _, x := range g.OutNeighbors(w) {
			if set.Contains(x) {
				linksIn++
			}
		}
		if g.Directed() {
			for _, x := range g.InNeighbors(w) {
				if set.Contains(x) {
					linksIn++
				}
			}
		}
		return linksIn, int64(g.Degree(w)) - 2*linksIn
	}

	for set.Len() < maxSize {
		var best graph.VID = -1
		bestNewCond := 2.0
		var bestDI, bestDB int64
		for _, w := range inFrontier.Members() {
			if set.Contains(w) {
				continue
			}
			di, db := delta(w)
			if di == 0 {
				continue
			}
			c := graphalgo.SweepConductance(internal+di, boundary+db)
			//lint:ignore floateq deterministic tie-break: equal conductance falls through to the smaller vertex id
			if c < bestNewCond || (c == bestNewCond && (best == -1 || w < best)) {
				best, bestNewCond = w, c
				bestDI, bestDB = di, db
			}
		}
		if best < 0 {
			break
		}
		set.Add(best)
		order = append(order, best)
		internal += bestDI
		boundary += bestDB
		addFrontier(best)
		if c := graphalgo.SweepConductance(internal, boundary); c < bestCond && set.Len() >= minSweepSize {
			bestCond = c
			bestPrefix = set.Len()
		}
	}
	return score.Group{
		Name:    fmt.Sprintf("sweep-seed%d", g.ExternalID(seed)),
		Members: order[:bestPrefix],
	}, bestCond
}

// checkSweepMatchesReference requires ConductanceSweep to return
// referenceSweep's name, members in order, and conductance bits.
func checkSweepMatchesReference(t *testing.T, g *graph.Graph, seed graph.VID, maxSize int) {
	t.Helper()
	got, cond, err := ConductanceSweep(g, seed, maxSize)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	want, wantCond := referenceSweep(g, seed, maxSize)
	if got.Name != want.Name || !slices.Equal(got.Members, want.Members) ||
		math.Float64bits(cond) != math.Float64bits(wantCond) {
		t.Fatalf("seed %d, maxSize %d: sweep %s %v (%v), reference %s %v (%v)",
			seed, maxSize, got.Name, got.Members, cond, want.Name, want.Members, wantCond)
	}
}

// FuzzConductanceSweep checks ConductanceSweep against referenceSweep on
// graphs decoded by fuzzGraph; seed picks the seed vertex and maxSize
// caps the community (0 returns the seed alone).
func FuzzConductanceSweep(f *testing.F) {
	f.Add([]byte{20, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 2, 3}, uint8(0), uint8(8), false)
	f.Add([]byte{21, 0, 1, 1, 0, 1, 2, 2, 3, 3, 1}, uint8(1), uint8(40), true)
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 9}, uint8(30), uint8(3), true)
	f.Add([]byte{4}, uint8(1), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, seed, maxSize uint8, directed bool) {
		if len(data) == 0 {
			return
		}
		g := fuzzGraph(t, data, directed)
		checkSweepMatchesReference(t, g, graph.VID(int(seed)%g.NumVertices()), int(maxSize))
	})
}

func TestPartitionModularityTwoCliques(t *testing.T) {
	g, truth := twoCliques(t)
	ctx := score.NewContext(g)
	partition := []score.Group{
		{Name: "a", Members: truth[0]},
		{Name: "b", Members: truth[1]},
	}
	q := PartitionModularity(ctx, partition)
	// Two cliques joined by one edge: strongly modular (Q close to 0.5).
	if q < 0.3 {
		t.Errorf("Q = %v, want > 0.3 for the natural partition", q)
	}
	// The trivial all-in-one partition has Q = 0 under the Chung-Lu
	// expectation minus the full-set deviation; it must be worse.
	all := []score.Group{{Name: "all", Members: g.Vertices()}}
	if qa := PartitionModularity(ctx, all); qa >= q {
		t.Errorf("trivial partition Q %v >= natural %v", qa, q)
	}
}

func TestPartitionModularityAgainstLabelPropagation(t *testing.T) {
	g, _ := twoCliques(t)
	ctx := score.NewContext(g)
	detected, err := LabelPropagation(g, LabelPropagationOptions{}, rand.New(rand.NewSource(81)))
	if err != nil {
		t.Fatal(err)
	}
	if q := PartitionModularity(ctx, detected); q < 0.3 {
		t.Errorf("label-propagation partition Q = %v, want > 0.3", q)
	}
}
