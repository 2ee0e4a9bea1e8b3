package detect

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/score"
)

func TestConductanceSweepFindsClique(t *testing.T) {
	g, truth := twoCliques(t)
	seed := truth[0][0]
	grp, cond, err := ConductanceSweep(g, seed, SweepOptions{MaxSize: 8})
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
	if _, _, err := ConductanceSweep(g, -1, SweepOptions{}); !errors.Is(err, ErrBadSeed) {
		t.Errorf("err = %v, want ErrBadSeed", err)
	}
	if _, _, err := ConductanceSweep(g, graph.VID(g.NumVertices()), SweepOptions{}); !errors.Is(err, ErrBadSeed) {
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
	grp, _, err := ConductanceSweep(g, seed, SweepOptions{MaxSize: 10})
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
	grp, cond, err := ConductanceSweep(g, 0, SweepOptions{MaxSize: 15})
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
	grp, cond, err := ConductanceSweep(g, isolated, SweepOptions{})
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
