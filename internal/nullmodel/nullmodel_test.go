package nullmodel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/par/partest"
	"gpluscircles/internal/score"
)

func randomConnectedGraph(t *testing.T, seed int64, n, extra int, directed bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(directed)
	// Spanning path guarantees weak connectivity.
	for i := 1; i < n; i++ {
		b.AddEdge(int64(i-1), int64(i))
	}
	for k := 0; k < extra; k++ {
		b.AddEdge(rng.Int63n(int64(n)), rng.Int63n(int64(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func degreesEqual(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.InDegree(graph.VID(v)) != b.InDegree(graph.VID(v)) ||
			a.OutDegree(graph.VID(v)) != b.OutDegree(graph.VID(v)) {
			return false
		}
	}
	return true
}

func TestRewirePreservesDegreesUndirected(t *testing.T) {
	g := randomConnectedGraph(t, 1, 50, 150, false)
	rg, err := Rewire(g, 10, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !degreesEqual(g, rg) {
		t.Error("degree sequence changed")
	}
	if rg.NumEdges() != g.NumEdges() {
		t.Errorf("edge count changed %d -> %d", g.NumEdges(), rg.NumEdges())
	}
}

func TestRewirePreservesDegreesDirected(t *testing.T) {
	g := randomConnectedGraph(t, 3, 40, 200, true)
	rg, err := Rewire(g, 10, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !degreesEqual(g, rg) {
		t.Error("in/out degree sequence changed")
	}
}

// TestRewireTwoEdges rewires the smallest swappable graphs. trySwap adds
// both new keys before deleting the old two, so the edge set must hold
// m + 2 keys with a slot to spare even when m = 2.
func TestRewireTwoEdges(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g, err := graph.FromEdges(directed, [][2]int64{{0, 1}, {2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		r := newRewirer(g)
		attempts, accepted := r.mix(50, rand.New(rand.NewSource(9)))
		if attempts != 100 || accepted == 0 {
			t.Fatalf("directed=%v: %d of %d swaps accepted, want some of 100", directed, accepted, attempts)
		}
		rg, err := r.build(g)
		if err != nil {
			t.Fatal(err)
		}
		if !degreesEqual(g, rg) || rg.NumEdges() != 2 {
			t.Fatalf("directed=%v: rewired graph lost its degree sequence: m=%d", directed, rg.NumEdges())
		}
		for _, e := range r.edges {
			if !r.present.has(r.key(e.From, e.To)) {
				t.Fatalf("directed=%v: edge %v missing from the edge set", directed, e)
			}
		}
	}
}

func TestRewireActuallyRandomizes(t *testing.T) {
	g := randomConnectedGraph(t, 5, 60, 200, false)
	rg, err := Rewire(g, 10, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	// Count shared edges; a well-mixed rewire should move most of them.
	shared := 0
	rg.Edges(func(e graph.Edge) bool {
		if g.HasEdge(e.From, e.To) {
			shared++
		}
		return true
	})
	if float64(shared) > 0.8*float64(g.NumEdges()) {
		t.Errorf("rewire kept %d/%d edges; chain not mixing", shared, g.NumEdges())
	}
}

func TestRewireNilRNG(t *testing.T) {
	g := randomConnectedGraph(t, 7, 10, 10, false)
	if _, err := Rewire(g, 1, nil); !errors.Is(err, ErrNoRNG) {
		t.Errorf("err = %v, want ErrNoRNG", err)
	}
}

func TestEmpiricalExpectationApproachesAnalytic(t *testing.T) {
	g := randomConnectedGraph(t, 10, 60, 400, false)
	est, err := NewEmpiricalEstimator(g, EstimatorOptions{
		Samples: 20, SwapsPerEdge: 8, RNG: rand.New(rand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	ctx := score.NewContext(g)
	// A random half of the vertices.
	var members []graph.VID
	for v := 0; v < g.NumVertices(); v += 2 {
		members = append(members, graph.VID(v))
	}
	set := graph.SetOf(g, members)
	emp := est.Expectation(set)
	ana := ctx.ChungLuExpectation(set)
	// The Chung–Lu expectation ignores simplicity constraints; agreement
	// within 30% relative error is expected at this density.
	if ana == 0 {
		t.Fatal("analytic expectation is 0")
	}
	if rel := math.Abs(emp-ana) / ana; rel > 0.3 {
		t.Errorf("empirical %v vs analytic %v: relative error %v > 0.3", emp, ana, rel)
	}
}

// TestEmpiricalExpectationValidation pins the estimator's input
// handling: an arena pooling another graph is rejected, zero Samples
// selects the documented 32, and a nil RNG selects a private stream
// seeded with Seed.
func TestEmpiricalExpectationValidation(t *testing.T) {
	g := randomConnectedGraph(t, 12, 10, 10, false)
	other := randomConnectedGraph(t, 13, 10, 10, false)
	if _, err := NewEmpiricalEstimator(g, EstimatorOptions{Arena: graph.NewOverlayArena(other)}); err == nil {
		t.Error("arena of a different graph accepted")
	}
	est, err := NewEmpiricalEstimator(g, EstimatorOptions{SwapsPerEdge: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	if len(est.overlays) != 32 {
		t.Errorf("samples = %d, want the default 32", len(est.overlays))
	}
	ref, err := NewEmpiricalEstimator(g, EstimatorOptions{
		Samples: 32, SwapsPerEdge: 1, RNG: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	set := graph.SetOf(g, []graph.VID{0, 2, 4, 6, 8})
	if got, want := est.Expectation(set), ref.Expectation(set); got != want {
		t.Errorf("nil-RNG estimate %v, want %v from an RNG seeded with Seed", got, want)
	}
}

// Property: rewiring preserves per-vertex in/out degrees, edge count and
// simplicity for any random connected seed graph.
func TestQuickRewireInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		b := graph.NewBuilder(directed)
		n := 12 + rng.Intn(20)
		for i := 1; i < n; i++ {
			b.AddEdge(int64(i-1), int64(i))
		}
		for k := 0; k < 3*n; k++ {
			b.AddEdge(rng.Int63n(int64(n)), rng.Int63n(int64(n)))
		}
		g, err := b.Build()
		if err != nil {
			return true
		}
		rg, err := Rewire(g, 5, rng)
		if err != nil {
			return false
		}
		if !degreesEqual(g, rg) || rg.NumEdges() != g.NumEdges() {
			return false
		}
		// Simplicity: no self-loops (builder drops them, so edge count
		// would have changed) and no duplicates (same).
		ok := true
		rg.Edges(func(e graph.Edge) bool {
			if e.From == e.To {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEmpiricalExpectationWorkersDeterministic asserts the parallel
// sampler is invariant under worker count: every sample owns a child RNG
// seeded from the parent stream up front, so the estimator must return
// identical values at GOMAXPROCS 1, 2 and 8 for the same seed.
func TestEmpiricalExpectationWorkersDeterministic(t *testing.T) {
	g := randomConnectedGraph(t, 31, 80, 240, true)
	sets := make([]*graph.Set, 5)
	rng := rand.New(rand.NewSource(9))
	for i := range sets {
		members := make([]graph.VID, 0, 12)
		for len(members) < 12 {
			members = append(members, graph.VID(rng.Intn(g.NumVertices())))
		}
		sets[i] = graph.SetOf(g, members)
	}

	var baseline []float64
	for _, workers := range []int{1, 2, 8} {
		partest.GOMAXPROCS(t, workers)
		est, err := NewEmpiricalEstimator(g, EstimatorOptions{
			Samples: 6, SwapsPerEdge: 2, RNG: rand.New(rand.NewSource(123)),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		vals := make([]float64, len(sets))
		for i, set := range sets {
			vals[i] = est.Expectation(set)
		}
		est.Close()
		if baseline == nil {
			baseline = vals
			continue
		}
		for i := range vals {
			if vals[i] != baseline[i] {
				t.Errorf("workers=%d set %d: %v, want %v (workers=1)", workers, i, vals[i], baseline[i])
			}
		}
	}
}

// TestEmpiricalExpectationEstimatorConcurrent exercises the returned
// estimator from multiple goroutines under -race.
func TestEmpiricalExpectationEstimatorConcurrent(t *testing.T) {
	g := randomConnectedGraph(t, 32, 60, 160, false)
	est, err := NewEmpiricalEstimator(g, EstimatorOptions{
		Samples: 4, SwapsPerEdge: 2, RNG: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	members := make([]graph.VID, 10)
	for i := range members {
		members[i] = graph.VID(i * 3)
	}
	set := graph.SetOf(g, members)
	want := est.Expectation(set)

	done := make(chan float64, 6)
	for i := 0; i < 6; i++ {
		go func() { done <- est.Expectation(set) }()
	}
	for i := 0; i < 6; i++ {
		if got := <-done; got != want {
			t.Errorf("concurrent estimate %v, want %v", got, want)
		}
	}
}
