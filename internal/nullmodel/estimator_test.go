package nullmodel

import (
	"math/rand"
	"sync"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/par/partest"
)

// referenceExpectation reproduces the pre-overlay estimator exactly: each
// sample is a full graph materialized through graph.Builder by Rewire,
// seeded from the parent stream up front, and the expectation is the mean
// internal edge count accumulated in sample order. The overlay-based
// Estimator must be bit-identical to this for every set and seed.
func referenceExpectation(t *testing.T, g *graph.Graph, samples int, swapsPerEdge float64, seed int64) func(*graph.Set) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, samples)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	randoms := make([]*graph.Graph, samples)
	for i := range randoms {
		var err error
		randoms[i], err = Rewire(g, swapsPerEdge, rand.New(rand.NewSource(seeds[i])))
		if err != nil {
			t.Fatalf("reference sample %d: %v", i, err)
		}
	}
	return func(set *graph.Set) float64 {
		var total float64
		for _, rg := range randoms {
			total += float64(graph.Cut(rg, set).Internal)
		}
		return total / float64(len(randoms))
	}
}

// testSets builds a few deterministic vertex sets of varying sizes.
func testSets(g *graph.Graph, seed int64) []*graph.Set {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	sizes := []int{3, 7, n / 4, n / 2}
	sets := make([]*graph.Set, 0, len(sizes))
	for _, size := range sizes {
		if size < 1 {
			size = 1
		}
		members := make([]graph.VID, 0, size)
		for _, v := range rng.Perm(n)[:size] {
			members = append(members, graph.VID(v))
		}
		sets = append(sets, graph.SetOf(g, members))
	}
	return sets
}

// TestEstimatorMatchesRewireReference asserts the overlay-based sampler
// reproduces the pre-refactor estimator values exactly — same seeds, same
// float64 bits — for directed and undirected graphs, serial and parallel
// workers, and across arena reuse (a second estimator built from
// recycled overlay buffers).
func TestEstimatorMatchesRewireReference(t *testing.T) {
	for _, directed := range []bool{false, true} {
		name := "undirected"
		if directed {
			name = "directed"
		}
		t.Run(name, func(t *testing.T) {
			g := randomConnectedGraph(t, 11, 60, 200, directed)
			const (
				samples      = 6
				swapsPerEdge = 3
				seed         = 991
			)
			ref := referenceExpectation(t, g, samples, swapsPerEdge, seed)
			sets := testSets(g, 5)

			arena := graph.NewOverlayArena(g)
			for round := 0; round < 2; round++ { // round 2 runs on pooled buffers
				for _, workers := range []int{1, 4} {
					partest.GOMAXPROCS(t, workers)
					est, err := NewEmpiricalEstimator(g, EstimatorOptions{
						Samples:      samples,
						SwapsPerEdge: swapsPerEdge,
						RNG:          rand.New(rand.NewSource(seed)),
						Arena:        arena,
					})
					if err != nil {
						t.Fatal(err)
					}
					for si, set := range sets {
						got, want := est.Expectation(set), ref(set)
						if got != want {
							t.Errorf("round %d workers %d set %d: estimator %v != reference %v",
								round, workers, si, got, want)
						}
					}
					est.Close()
				}
			}
		})
	}
}

// TestEstimatorClosureMatchesReference covers the closure form
// (Estimator.Func) against the reference too, since score.Context
// consumers install it directly.
func TestEstimatorClosureMatchesReference(t *testing.T) {
	g := randomConnectedGraph(t, 21, 40, 120, true)
	ref := referenceExpectation(t, g, 4, 2, 77)
	est, err := NewEmpiricalEstimator(g, EstimatorOptions{
		Samples: 4, SwapsPerEdge: 2, RNG: rand.New(rand.NewSource(77)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	closure := est.Func()
	for si, set := range testSets(g, 9) {
		if got, want := closure(set), ref(set); got != want {
			t.Errorf("set %d: closure %v != reference %v", si, got, want)
		}
	}
}

// TestEstimatorSharedAcrossGoroutines shares one estimator and its
// overlays across many goroutines scoring concurrently (run under -race
// by `make race` and CI). Every goroutine must observe exactly the
// serial expectation values, and overlay degree invariants must hold.
func TestEstimatorSharedAcrossGoroutines(t *testing.T) {
	g := randomConnectedGraph(t, 31, 80, 300, true)
	est, err := NewEmpiricalEstimator(g, EstimatorOptions{
		Samples: 5, SwapsPerEdge: 2, RNG: rand.New(rand.NewSource(13)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()

	sets := testSets(g, 3)
	want := make([]float64, len(sets))
	for i, set := range sets {
		want[i] = est.Expectation(set)
	}

	const goroutines = 16
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				i := (w + rep) % len(sets)
				if got := est.Expectation(sets[i]); got != want[i] {
					errs <- &mismatchError{got: got, want: want[i]}
					return
				}
				// Read overlay adjacency directly, as score functions do.
				ov := est.Sample((w + rep) % est.Samples())
				v := graph.VID((w * 7) % g.NumVertices())
				if len(ov.OutNeighbors(v)) != g.OutDegree(v) {
					errs <- &mismatchError{got: float64(len(ov.OutNeighbors(v))), want: float64(g.OutDegree(v))}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct{ got, want float64 }

func (e *mismatchError) Error() string {
	return "concurrent expectation mismatch"
}

// TestEstimatorArenaRejectsForeignGraph guards the arena/graph pairing.
func TestEstimatorArenaRejectsForeignGraph(t *testing.T) {
	g1 := randomConnectedGraph(t, 41, 20, 40, false)
	g2 := randomConnectedGraph(t, 42, 20, 40, false)
	arena := graph.NewOverlayArena(g1)
	if _, err := NewEmpiricalEstimator(g2, EstimatorOptions{
		Samples: 2, SwapsPerEdge: 1, RNG: rand.New(rand.NewSource(1)), Arena: arena,
	}); err == nil {
		t.Fatal("expected an error for an arena pooling a different graph")
	}
}

// TestEstimatorSamplesPreserveDegrees asserts every overlay sample
// realizes the parent's exact degree sequence (the invariant that lets
// overlays share the parent's CSR offsets).
func TestEstimatorSamplesPreserveDegrees(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := randomConnectedGraph(t, 51, 50, 150, directed)
		est, err := NewEmpiricalEstimator(g, EstimatorOptions{
			Samples: 3, SwapsPerEdge: 4, RNG: rand.New(rand.NewSource(3)),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < est.Samples(); i++ {
			ov := est.Sample(i)
			for v := 0; v < g.NumVertices(); v++ {
				vid := graph.VID(v)
				if ov.OutDegree(vid) != g.OutDegree(vid) || ov.InDegree(vid) != g.InDegree(vid) {
					t.Fatalf("directed=%v sample %d vertex %d: degree mismatch", directed, i, v)
				}
				row := ov.OutNeighbors(vid)
				for k := 1; k < len(row); k++ {
					if row[k-1] >= row[k] {
						t.Fatalf("directed=%v sample %d vertex %d: row not strictly ascending", directed, i, v)
					}
				}
			}
		}
		est.Close()
	}
}
