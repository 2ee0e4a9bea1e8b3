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
	vec, err := NewPPR(0).Push(g, 0, PPROptions{Eps: eps})
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
	vec, err := NewPPR(0).Push(g, seed, PPROptions{})
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
	if _, err := NewPPR(0).Push(g, -1, PPROptions{}); !errors.Is(err, ErrBadSeed) {
		t.Errorf("seed -1: got %v, want ErrBadSeed", err)
	}
	if _, err := NewPPR(0).Push(g, 99, PPROptions{}); !errors.Is(err, ErrBadSeed) {
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
	fresh, err := NewPPR(0).Push(g, 7, PPROptions{})
	if err != nil {
		t.Fatalf("fresh push: %v", err)
	}
	samePush(t, reused, fresh)
}

func TestPPRDegreeNormalizedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := pprGraph(t, true, randomPPREdges(rng, 50, 220))
	vec, err := NewPPR(0).Push(g, 1, PPROptions{Eps: 1e-5})
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

// checkTouchedSupport asserts the set contract of a push result: Touched
// is deduplicated and holds exactly the vertices that carry mass, and
// Support is the part of Touched with positive score, ascending.
func checkTouchedSupport(t *testing.T, g *graph.Graph, vec *PPRVector) {
	t.Helper()
	touched := slices.Clone(vec.Touched)
	slices.Sort(touched)
	if len(slices.Compact(touched)) != len(vec.Touched) {
		t.Fatalf("Touched (%d) repeats a vertex", len(vec.Touched))
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
	if !slices.Equal(touched, reached) {
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

// Touched and Support must keep their set contract, and match a fresh
// workspace's result, on fresh and on reused workspaces, including one
// reused across graphs of different sizes: a push that reaches a large
// share of the vertex range, one that stays in a small region of a large
// graph, and one that touches every vertex of a graph smaller than the
// workspace.
func TestPPRTouchedAndSupportOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dense := pprGraph(t, true, randomPPREdges(rng, 3000, 30000))
	sparse := ringAndClique(t)
	small := clique(t, 12)
	cases := []struct {
		name  string
		g     *graph.Graph
		seeds []graph.VID
	}{
		{"dense", dense, []graph.VID{0, 1499, 2999}},
		{"sparse", sparse, []graph.VID{vertex(t, sparse, 0), vertex(t, sparse, 12345), vertex(t, sparse, 20003)}},
		{"small", small, []graph.VID{0, 11}},
	}
	shared := NewPPR(small.NumVertices())
	for round := 0; round < 2; round++ {
		for _, tc := range cases {
			for _, seed := range tc.seeds {
				vec, err := shared.Push(tc.g, seed, PPROptions{})
				if err != nil {
					t.Fatalf("%s seed %d: %v", tc.name, seed, err)
				}
				if vec.Touched[0] != seed {
					t.Fatalf("%s seed %d: Touched starts at %d, want the seed", tc.name, seed, vec.Touched[0])
				}
				checkTouchedSupport(t, tc.g, vec)
				checkMassAndResidual(t, tc.g, vec, 1e-4)
				fresh, err := NewPPR(0).Push(tc.g, seed, PPROptions{})
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

// refVector is referencePush's result: dense p and r, the touched set
// ascending, the support collected from it, and the push count.
type refVector struct {
	p, r             []float64
	touched, support []graph.VID
	pushes           int
}

// referencePush is the push as it stood before the fused per-vertex
// slots and the recorded support: separate residual, queued and marked
// arrays, eps·deg recomputed at every test, and a touched set sorted at
// the end with the support collected from it. It is the oracle Push must
// match bit for bit.
func referencePush(g *graph.Graph, seed graph.VID, opts PPROptions) refVector {
	n := g.NumVertices()
	opts = opts.withDefaults()
	ref := refVector{p: make([]float64, n), r: make([]float64, n)}
	queued := make([]bool, n)
	marked := make([]bool, n)
	var queue []graph.VID
	touch := func(v graph.VID) {
		if !marked[v] {
			marked[v] = true
			ref.touched = append(ref.touched, v)
		}
	}
	ref.r[seed] = 1
	touch(seed)
	if g.Degree(seed) == 0 {
		ref.p[seed] = 1
		ref.r[seed] = 0
	} else {
		queue = append(queue, seed)
		queued[seed] = true
	}
	for len(queue) > 0 {
		if opts.MaxPush > 0 && ref.pushes >= opts.MaxPush {
			break
		}
		u := queue[0]
		queue = queue[1:]
		queued[u] = false
		deg := float64(g.Degree(u))
		ru := ref.r[u]
		if ru < opts.Eps*deg {
			continue
		}
		ref.pushes++
		ref.p[u] += opts.Alpha * ru
		ref.r[u] = 0
		share := (1 - opts.Alpha) * ru / deg
		spread := func(v graph.VID) {
			touch(v)
			ref.r[v] += share
			if !queued[v] && ref.r[v] >= opts.Eps*float64(g.Degree(v)) {
				queue = append(queue, v)
				queued[v] = true
			}
		}
		for _, v := range g.OutNeighbors(u) {
			spread(v)
		}
		if g.Directed() {
			for _, v := range g.InNeighbors(u) {
				spread(v)
			}
		}
	}
	slices.Sort(ref.touched)
	for _, v := range ref.touched {
		if ref.p[v] > 0 {
			ref.support = append(ref.support, v)
		}
	}
	return ref
}

// checkPushMatchesReference pushes seed on w and requires referencePush's
// result: the same touched set, the same bits of p and r on it, the same
// support and push count, and the sort.Slice permutation of the
// reference support as the sweep order.
func checkPushMatchesReference(t *testing.T, w *PPR, g *graph.Graph, seed graph.VID, opts PPROptions) {
	t.Helper()
	got, err := w.Push(g, seed, opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	want := referencePush(g, seed, opts)
	touched := slices.Clone(got.Touched)
	slices.Sort(touched)
	if !slices.Equal(touched, want.touched) {
		t.Fatalf("seed %d: touched %d vertices, reference %d", seed, len(touched), len(want.touched))
	}
	if got.Touched[0] != seed {
		t.Fatalf("seed %d: Touched starts at %d", seed, got.Touched[0])
	}
	for _, v := range want.touched {
		if math.Float64bits(got.Score(v)) != math.Float64bits(want.p[v]) ||
			math.Float64bits(got.Residual(v)) != math.Float64bits(want.r[v]) {
			t.Fatalf("seed %d, vertex %d: p %v vs %v, r %v vs %v", seed, v, got.Score(v), want.p[v], got.Residual(v), want.r[v])
		}
	}
	if got.Pushes != want.pushes || !slices.Equal(got.Support, want.support) {
		t.Fatalf("seed %d: pushes %d vs %d, support %d vs %d vertices", seed, got.Pushes, want.pushes, len(got.Support), len(want.support))
	}
	order := slices.Clone(want.support)
	sort.Slice(order, lessByDegreeNormalized(g, want.p, order))
	if !slices.Equal(got.DegreeNormalizedOrder(g), order) {
		t.Fatalf("seed %d: sweep order differs from the reference's", seed)
	}
}

// fuzzGraph decodes a fuzz input into a graph: data[0]>>1 picks the
// vertex count (1–64), and each following byte pair is an arc
// (self-loops and repeats are dropped by the builder; unlisted vertices
// stay isolated). data must not be empty.
func fuzzGraph(t *testing.T, data []byte, directed bool) *graph.Graph {
	t.Helper()
	n := 1 + int(data[0]>>1)%64
	b := graph.NewBuilder(directed)
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	for i := 1; i+1 < len(data); i += 2 {
		b.AddEdge(int64(data[i])%int64(n), int64(data[i+1])%int64(n))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

// FuzzPPRPush checks Push against referencePush on graphs decoded by
// fuzzGraph, with data[0]&1 picking the direction. seed picks the seed
// vertex, eps the tolerance (non-positive selects the default) and
// maxPush a push cap (0: none). Each input is pushed on a workspace that
// first pushed another seed, so the lazy clear is checked too.
func FuzzPPRPush(f *testing.F) {
	f.Add([]byte{20, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5}, uint8(0), 1e-4, uint8(0))
	f.Add([]byte{21, 0, 1, 1, 2, 2, 0, 3, 4}, uint8(2), 1e-300, uint8(0))
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 9}, uint8(30), 1e-12, uint8(7))
	f.Add([]byte{4}, uint8(1), 0.0, uint8(0))
	f.Add([]byte{127, 0, 1}, uint8(5), math.Inf(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, seed uint8, eps float64, maxPush uint8) {
		if len(data) == 0 {
			return
		}
		g := fuzzGraph(t, data, data[0]&1 == 1)
		n := g.NumVertices()
		opts := PPROptions{Eps: eps, MaxPush: int(maxPush)}
		s := graph.VID(int(seed) % n)
		w := NewPPR(n)
		if _, err := w.Push(g, graph.VID(n-1)-s, opts); err != nil {
			t.Fatalf("warm-up push: %v", err)
		}
		checkPushMatchesReference(t, w, g, s, opts)
	})
}

// A warmed workspace pushes without allocating: the lazy clear reuses
// its arrays, and the queue, touched and support lists keep their
// capacity from earlier pushes.
func TestPushSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := pprGraph(t, true, randomPPREdges(rng, 500, 3000))
	w := NewPPR(g.NumVertices())
	seeds := []graph.VID{0, 123, 499}
	for _, s := range seeds {
		if _, err := w.Push(g, s, PPROptions{Eps: 1e-6}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, s := range seeds {
			if _, err := w.Push(g, s, PPROptions{Eps: 1e-6}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Push allocated %.1f times per three pushes", allocs)
	}
}
