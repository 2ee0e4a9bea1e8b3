package detect

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gpluscircles/internal/graph"
)

func pprGraph(t *testing.T, directed bool, edges [][2]int64) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(directed, edges)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	return g
}

func clique(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var edges [][2]int64
	for u := int64(0); u < int64(n); u++ {
		for v := u + 1; v < int64(n); v++ {
			edges = append(edges, [2]int64{u, v})
		}
	}
	return pprGraph(t, false, edges)
}

// checkMassAndResidual asserts the two push invariants: total mass p + r
// over the touched set conserved within 1e-12, and every residual below
// the eps·deg termination threshold.
func checkMassAndResidual(t *testing.T, g *graph.Graph, vec *PPRVector, eps float64) {
	t.Helper()
	var mass float64
	for _, v := range vec.Touched {
		mass += vec.Score(v) + vec.Residual(v)
	}
	if math.Abs(mass-1) > 1e-12 {
		t.Errorf("mass p+r = %.17g, want 1 within 1e-12", mass)
	}
	for _, v := range vec.Touched {
		deg := float64(g.Degree(v))
		if deg > 0 && vec.Residual(v) >= eps*deg {
			t.Errorf("residual bound violated at %d: r=%v >= eps*deg=%v", v, vec.Residual(v), eps*deg)
		}
	}
}

func TestPPRCliqueNearUniform(t *testing.T) {
	const n = 30
	const eps = 1e-7
	g := clique(t, n)
	vec, err := ApproxPPR(g, 0, PPROptions{Eps: eps})
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	checkMassAndResidual(t, g, vec, eps)
	if len(vec.Support) != n {
		t.Fatalf("clique support = %d vertices, want %d", len(vec.Support), n)
	}
	// The seed keeps its teleport bonus; all other vertices are
	// exchangeable and must score near-uniformly.
	lo, hi := math.Inf(1), math.Inf(-1)
	for v := graph.VID(1); v < n; v++ {
		s := vec.Score(v)
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	if vec.Score(0) <= hi {
		t.Errorf("seed score %v not above peer max %v", vec.Score(0), hi)
	}
	if (hi-lo)/hi > 1e-2 {
		t.Errorf("peer scores not near-uniform: [%v, %v]", lo, hi)
	}
}

func TestPPRIsolatedSeed(t *testing.T) {
	// Vertex 3 exists but has no edges.
	b := graph.NewBuilder(false)
	b.AddEdge(0, 1)
	b.AddVertex(3)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	seed, ok := g.Lookup(3)
	if !ok {
		t.Fatal("vertex 3 missing")
	}
	vec, err := ApproxPPR(g, seed, PPROptions{})
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if vec.Score(seed) != 1 { //lint:ignore floateq isolated seed is exact
		t.Errorf("isolated seed score = %v, want exactly 1", vec.Score(seed))
	}
	if len(vec.Support) != 1 || vec.Support[0] != seed {
		t.Errorf("isolated seed support = %v, want [%d]", vec.Support, seed)
	}
	if vec.Pushes != 0 {
		t.Errorf("isolated seed pushes = %d, want 0", vec.Pushes)
	}
}

func TestPPRBadSeed(t *testing.T) {
	g := pprGraph(t, false, [][2]int64{{0, 1}})
	if _, err := ApproxPPR(g, -1, PPROptions{}); !errors.Is(err, ErrBadSeed) {
		t.Errorf("seed -1: got %v, want ErrBadSeed", err)
	}
	if _, err := ApproxPPR(g, 99, PPROptions{}); !errors.Is(err, ErrBadSeed) {
		t.Errorf("seed 99: got %v, want ErrBadSeed", err)
	}
}

// Workspace reuse must be invisible: pushing seed A then seed B yields
// bit-identical scores to a fresh workspace pushing B.
func TestPPRWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := pprGraph(t, false, randomPPREdges(rng, 60, 200))
	w := NewPPR(g.NumVertices())
	if _, err := w.Push(g, 0, PPROptions{}); err != nil {
		t.Fatalf("first push: %v", err)
	}
	reused, err := w.Push(g, 7, PPROptions{})
	if err != nil {
		t.Fatalf("reused push: %v", err)
	}
	fresh, err := ApproxPPR(g, 7, PPROptions{})
	if err != nil {
		t.Fatalf("fresh push: %v", err)
	}
	samePush(t, reused, fresh)
}

func TestPPRDegreeNormalizedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := pprGraph(t, true, randomPPREdges(rng, 50, 220))
	vec, err := ApproxPPR(g, 1, PPROptions{Eps: 1e-5})
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	checkMassAndResidual(t, g, vec, 1e-5)
	order := vec.DegreeNormalizedOrder(g)
	if len(order) != len(vec.Support) {
		t.Fatalf("order has %d vertices, support %d", len(order), len(vec.Support))
	}
	seen := make(map[graph.VID]bool, len(order))
	for i, v := range order {
		if seen[v] {
			t.Fatalf("order repeats vertex %d", v)
		}
		seen[v] = true
		if i == 0 {
			continue
		}
		u := order[i-1]
		// p(u)/deg(u) >= p(v)/deg(v) via cross-multiplication, ties by id.
		du, dv := float64(g.Degree(u)), float64(g.Degree(v))
		ru, rv := vec.Score(u)*dv, vec.Score(v)*du
		if ru < rv {
			t.Fatalf("order[%d..%d] not descending: %v < %v", i-1, i, ru, rv)
		}
		if ru == rv && u > v { //lint:ignore floateq tie detection mirrors the comparator
			t.Fatalf("tie at order[%d..%d] not broken by id: %d before %d", i-1, i, u, v)
		}
	}
}

func randomPPREdges(rng *rand.Rand, n, m int) [][2]int64 {
	edges := make([][2]int64, 0, m+n)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int64{rng.Int63n(int64(n)), rng.Int63n(int64(n))})
	}
	// Cycle so every vertex exists and has degree > 0.
	for v := int64(0); v < int64(n); v++ {
		edges = append(edges, [2]int64{v, (v + 1) % int64(n)})
	}
	return edges
}

// checkTouchedSupport asserts the ordered-set contract of a push result:
// Touched equals its own sorted, deduplicated copy and holds exactly the
// vertices that carry mass, and Support is the part of Touched with
// positive score.
func checkTouchedSupport(t *testing.T, g *graph.Graph, vec *PPRVector) {
	t.Helper()
	want := slices.Clone(vec.Touched)
	slices.Sort(want)
	want = slices.Compact(want)
	if !slices.Equal(vec.Touched, want) {
		t.Fatalf("Touched (%d) is not sorted and deduplicated", len(vec.Touched))
	}
	var reached, support []graph.VID
	for v := graph.VID(0); int(v) < g.NumVertices(); v++ {
		if vec.Score(v) > 0 || vec.Residual(v) > 0 {
			reached = append(reached, v)
		}
		if vec.Score(v) > 0 {
			support = append(support, v)
		}
	}
	if !slices.Equal(vec.Touched, reached) {
		t.Fatalf("Touched has %d vertices, %d carry mass", len(vec.Touched), len(reached))
	}
	if !slices.Equal(vec.Support, support) {
		t.Fatalf("Support has %d vertices, %d have positive score", len(vec.Support), len(support))
	}
}

// samePush asserts two push results are bit-identical.
func samePush(t *testing.T, got, want *PPRVector) {
	t.Helper()
	if got.Pushes != want.Pushes || !slices.Equal(got.Touched, want.Touched) || !slices.Equal(got.Support, want.Support) {
		t.Fatalf("pushes %d vs %d, touched %d vs %d, support %d vs %d",
			got.Pushes, want.Pushes, len(got.Touched), len(want.Touched), len(got.Support), len(want.Support))
	}
	for _, v := range want.Touched {
		if math.Float64bits(got.Score(v)) != math.Float64bits(want.Score(v)) ||
			math.Float64bits(got.Residual(v)) != math.Float64bits(want.Residual(v)) {
			t.Fatalf("vertex %d: p %v vs %v, r %v vs %v", v, got.Score(v), want.Score(v), got.Residual(v), want.Residual(v))
		}
	}
}

// ringAndClique is a 20,000-vertex ring (ids 0..19999) beside an 8-clique
// (ids 20000..20007): a default-eps push from either stays in a small
// region, and in the clique every vertex is reached from several others.
func ringAndClique(t *testing.T) *graph.Graph {
	t.Helper()
	const n = 20000
	var edges [][2]int64
	for v := int64(0); v < n; v++ {
		edges = append(edges, [2]int64{v, (v + 1) % n})
	}
	for u := int64(n); u < n+8; u++ {
		for v := u + 1; v < n+8; v++ {
			edges = append(edges, [2]int64{u, v})
		}
	}
	return pprGraph(t, false, edges)
}

func vertex(t *testing.T, g *graph.Graph, id int64) graph.VID {
	t.Helper()
	v, ok := g.Lookup(id)
	if !ok {
		t.Fatalf("vertex %d missing", id)
	}
	return v
}

// Both ways finish orders the touched set — the scan of the marks for a
// large share of the vertex range, the sort for a small one — must give
// the same ordered, deduplicated set, on fresh and on reused workspaces,
// including one reused across graphs of different sizes.
func TestPPRTouchedAndSupportOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dense := pprGraph(t, true, randomPPREdges(rng, 3000, 30000))
	sparse := ringAndClique(t)
	small := clique(t, 12) // every vertex touched: the scan on a workspace larger than the graph
	cases := []struct {
		name  string
		g     *graph.Graph
		seeds []graph.VID
		scan  bool
	}{
		{"dense", dense, []graph.VID{0, 1499, 2999}, true},
		{"sparse", sparse, []graph.VID{vertex(t, sparse, 0), vertex(t, sparse, 12345), vertex(t, sparse, 20003)}, false},
		{"small", small, []graph.VID{0, 11}, true},
	}
	shared := NewPPR(small.NumVertices())
	for round := 0; round < 2; round++ {
		for _, tc := range cases {
			for _, seed := range tc.seeds {
				vec, err := shared.Push(tc.g, seed, PPROptions{})
				if err != nil {
					t.Fatalf("%s seed %d: %v", tc.name, seed, err)
				}
				n := tc.g.NumVertices()
				if scan := len(vec.Touched)*denseTouchedShare >= n; scan != tc.scan {
					t.Fatalf("%s seed %d: %d of %d touched takes scan=%v, want %v", tc.name, seed, len(vec.Touched), n, scan, tc.scan)
				}
				checkTouchedSupport(t, tc.g, vec)
				checkMassAndResidual(t, tc.g, vec, 1e-4)
				fresh, err := ApproxPPR(tc.g, seed, PPROptions{})
				if err != nil {
					t.Fatalf("%s seed %d: %v", tc.name, seed, err)
				}
				samePush(t, vec, fresh)
			}
		}
	}
}

// lessByDegreeNormalized is DegreeNormalizedOrder's ordering written as a
// sort.Slice less function: the oracle for the permutation it returns.
func lessByDegreeNormalized(g *graph.Graph, p []float64, order []graph.VID) func(i, j int) bool {
	return func(i, j int) bool {
		a, b := order[i], order[j]
		da, db := g.Degree(a), g.Degree(b)
		if da == 0 {
			if db == 0 {
				return a < b
			}
			return true
		}
		if db == 0 {
			return false
		}
		ra := p[a] * float64(db)
		rb := p[b] * float64(da)
		if ra > rb {
			return true
		}
		if ra < rb {
			return false
		}
		return a < b
	}
}

// The sweep order must be the permutation sort.Slice produced, also on
// exact ties and on near-ties, where rounding in the cross-multiplied
// comparison can make it intransitive and the result depends on the
// sort's comparison sequence.
func TestDegreeNormalizedOrderMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		n := 20 + rng.Intn(600)
		b := graph.NewBuilder(trial%2 == 0)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(rng.Int63n(int64(n)), rng.Int63n(int64(n)))
		}
		for i := 0; i < n/10; i++ {
			b.AddVertex(int64(n + i)) // isolated: the zero-degree branches
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		p := make([]float64, g.NumVertices())
		support := make([]graph.VID, 0, len(p))
		bases := []float64{1.0 / 3, 0.1, 1.0 / 7, 0.25}
		for v := range p {
			if rng.Intn(5) == 0 {
				continue // not in the support
			}
			p[v] = bases[rng.Intn(len(bases))] * float64(max(g.Degree(graph.VID(v)), 1))
			switch rng.Intn(3) {
			case 0:
				p[v] = math.Nextafter(p[v], 0)
			case 1:
				p[v] = math.Nextafter(p[v], 1)
			}
			support = append(support, graph.VID(v))
		}
		vec := &PPRVector{Support: support, p: p}
		got := vec.DegreeNormalizedOrder(g)
		want := slices.Clone(support)
		sort.Slice(want, lessByDegreeNormalized(g, p, want))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): order differs from sort.Slice", trial, len(p))
		}
	}
}
