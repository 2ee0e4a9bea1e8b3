package detect_test

import (
	"math"
	"math/rand"
	"testing"

	"gpluscircles/internal/core"
	"gpluscircles/internal/detect"
	"gpluscircles/internal/graph"
)

// TestPPRPropertiesOnSeedDatasets drives the push invariants over all
// five seed data sets (the paper's four networks plus the crawl): mass
// conservation within 1e-12, the eps·deg residual bound at termination,
// and a sweep ordering that is a permutation of the support. An external
// test package so the kernel package itself stays below core in the
// layer map.
func TestPPRPropertiesOnSeedDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	suite := core.NewSuite(core.SuiteOptions{Scale: 0.1, Seed: 3})
	const eps = 1e-4
	for _, name := range core.DatasetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			ds, err := suite.DatasetByName(name)
			if err != nil {
				t.Fatalf("dataset %s: %v", name, err)
			}
			g := ds.Graph
			n := g.NumVertices()
			if n == 0 {
				t.Fatalf("dataset %s is empty", name)
			}
			w := detect.NewPPR(n)
			// A spread of structurally different seeds: first, middle,
			// last, and the maximum-degree vertex.
			seeds := []graph.VID{0, graph.VID(n / 2), graph.VID(n - 1), maxDegreeVertex(g)}
			for _, seed := range seeds {
				vec, err := w.Push(g, seed, detect.PPROptions{Eps: eps})
				if err != nil {
					t.Fatalf("push seed %d: %v", seed, err)
				}
				var mass float64
				for _, v := range vec.Touched {
					mass += vec.Score(v) + vec.Residual(v)
				}
				if math.Abs(mass-1) > 1e-12 {
					t.Errorf("seed %d: mass p+r = %.17g, want 1 within 1e-12", seed, mass)
				}
				for _, v := range vec.Touched {
					deg := float64(g.Degree(v))
					if deg > 0 && vec.Residual(v) >= eps*deg {
						t.Errorf("seed %d: residual bound violated at %d: r=%v >= %v",
							seed, v, vec.Residual(v), eps*deg)
					}
					if vec.Score(v) < 0 || vec.Residual(v) < 0 {
						t.Errorf("seed %d: negative mass at %d: p=%v r=%v",
							seed, v, vec.Score(v), vec.Residual(v))
					}
				}
				order := vec.DegreeNormalizedOrder(g)
				if len(order) != len(vec.Support) {
					t.Fatalf("seed %d: order %d vertices, support %d", seed, len(order), len(vec.Support))
				}
				inSupport := make(map[graph.VID]bool, len(vec.Support))
				for _, v := range vec.Support {
					inSupport[v] = true
				}
				for _, v := range order {
					if !inSupport[v] {
						t.Fatalf("seed %d: order vertex %d not in support", seed, v)
					}
					delete(inSupport, v)
				}
			}
		})
	}
}

func maxDegreeVertex(g *graph.Graph) graph.VID {
	best := graph.VID(0)
	for v := graph.VID(1); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}

// TestPushMatchesReference requires the push to match its reference
// oracle bit for bit (detect.CheckPushMatchesReference) on random
// directed and undirected graphs with isolated vertices, at tolerances
// from the default down to 1e-300 and under MaxPush caps, on a path
// where scores underflow, and on the five seed data sets from nine
// seeds each. One workspace is reused throughout, across graphs of
// different sizes.
func TestPushMatchesReference(t *testing.T) {
	w := detect.NewPPR(0)
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(300)
			g := randomGraphWithIsolated(t, rng, trial%2 == 0, n, rng.Intn(4*n))
			opts := detect.PPROptions{
				Eps:   []float64{0, 1e-3, 1e-6, 1e-12, 1e-300}[trial%5],
				Alpha: []float64{0, 0.05, 0.5}[trial%3],
			}
			if trial%4 == 3 {
				opts.MaxPush = 1 + rng.Intn(50)
			}
			for k := 0; k < 4; k++ {
				detect.CheckPushMatchesReference(t, w, g, graph.VID(rng.Intn(n)), opts)
			}
		}
	})
	// With alpha = 1e-300, a vertex far down a path is pushed with a
	// residual near 2^-100, so alpha·r(v) rounds to zero: it is pushed
	// but keeps p(v) = 0 and must stay out of the support.
	t.Run("underflow", func(t *testing.T) {
		var edges [][2]int64
		for v := int64(0); v < 200; v++ {
			edges = append(edges, [2]int64{v, v + 1})
		}
		g, err := graph.FromEdges(false, edges)
		if err != nil {
			t.Fatal(err)
		}
		detect.CheckPushMatchesReference(t, w, g, 0, detect.PPROptions{Alpha: 1e-300, Eps: 1e-40, MaxPush: 5000})
	})
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	suite := core.NewSuite(core.SuiteOptions{Scale: 0.1, Seed: 3})
	for _, name := range core.DatasetNames() {
		t.Run(name, func(t *testing.T) {
			ds, err := suite.DatasetByName(name)
			if err != nil {
				t.Fatalf("dataset %s: %v", name, err)
			}
			g := ds.Graph
			n := g.NumVertices()
			seeds := []graph.VID{maxDegreeVertex(g)}
			for k := 0; k < 8; k++ {
				seeds = append(seeds, graph.VID(k*n/8))
			}
			for _, opts := range []detect.PPROptions{{}, {Eps: 1e-6}, {MaxPush: 25}} {
				for _, seed := range seeds {
					detect.CheckPushMatchesReference(t, w, g, seed, opts)
				}
			}
		})
	}
}

// randomGraphWithIsolated builds a graph on vertices 0..n-1 with m random
// arcs and no spanning cycle, so some vertices stay isolated.
func randomGraphWithIsolated(t *testing.T, rng *rand.Rand, directed bool, n, m int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(directed)
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Int63n(int64(n)), rng.Int63n(int64(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}
