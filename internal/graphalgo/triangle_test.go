package graphalgo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpluscircles/internal/graph"
)

// naiveTriangleCount is the pre-kernel forward algorithm (projection +
// neighbour marking), kept as the reference the kernel is fuzzed against.
func naiveTriangleCount(t *testing.T, g *graph.Graph) int64 {
	t.Helper()
	u := g
	if g.Directed() {
		var err error
		u, err = graph.Undirected(g)
		if err != nil {
			t.Fatalf("projection: %v", err)
		}
	}
	n := u.NumVertices()
	marked := graph.NewSet(n)
	var triangles int64
	for v := 0; v < n; v++ {
		adj := u.OutNeighbors(graph.VID(v))
		marked.Clear()
		for _, a := range adj {
			if a > graph.VID(v) {
				marked.Add(a)
			}
		}
		for _, a := range adj {
			if a <= graph.VID(v) {
				continue
			}
			for _, w := range u.OutNeighbors(a) {
				if w > a && marked.Contains(w) {
					triangles++
				}
			}
		}
	}
	return triangles
}

// naiveLocalClustering is the pre-kernel per-vertex implementation.
func naiveLocalClustering(t *testing.T, g *graph.Graph) []float64 {
	t.Helper()
	u := g
	if g.Directed() {
		var err error
		u, err = graph.Undirected(g)
		if err != nil {
			t.Fatalf("projection: %v", err)
		}
	}
	n := u.NumVertices()
	out := make([]float64, n)
	marked := graph.NewSet(n)
	for v := 0; v < n; v++ {
		adj := u.OutNeighbors(graph.VID(v))
		k := len(adj)
		if k < 2 {
			continue
		}
		marked.Fill(adj)
		var links int64
		for _, a := range adj {
			for _, w := range u.OutNeighbors(a) {
				if w > a && marked.Contains(w) {
					links++
				}
			}
		}
		marked.Clear()
		out[v] = 2 * float64(links) / (float64(k) * float64(k-1))
	}
	return out
}

func TestTriangleKernelKnown(t *testing.T) {
	cases := []struct {
		name     string
		directed bool
		edges    [][2]int64
		want     int64
	}{
		{"two-triangles", false, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {1, 3}, {2, 3}}, 2},
		{"k4", false, [][2]int64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, 4},
		{"star", false, [][2]int64{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, 0},
		{"directed-reciprocal", true, [][2]int64{{0, 1}, {1, 0}, {1, 2}, {2, 0}}, 1},
	}
	for _, tc := range cases {
		g := mustGraph(t, tc.directed, tc.edges)
		if got := TriangleCount(g, 1); got != tc.want {
			t.Errorf("%s: TriangleCount = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Property: the kernel count matches the naive forward algorithm on
// random directed and undirected graphs.
func TestQuickTriangleKernelMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.FromEdges(seed%2 == 0, randomEdges(rng, 25, 60))
		if err != nil {
			return true
		}
		return TriangleCount(g, 1) == naiveTriangleCount(t, g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the DAG-enumeration LocalClustering matches the naive
// marked-set implementation exactly (same integer counts, same float
// expression, hence bit-identical coefficients).
func TestQuickLocalClusteringMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.FromEdges(seed%2 == 0, randomEdges(rng, 20, 50))
		if err != nil {
			return true
		}
		got, err := LocalClustering(g)
		if err != nil {
			return false
		}
		want := naiveLocalClustering(t, g)
		for v := range want {
			//lint:ignore floateq both sides compute 2*links/(k*(k-1)) from identical integers
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The parallel fan-out must be bit-identical across worker counts. The
// graph is sized past the serial cutoff so workers actually engage.
func TestTriangleCountWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := graph.FromEdges(true, randomEdges(rng, 4000, 16000))
	if err != nil {
		t.Fatal(err)
	}
	want := TriangleCount(g, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := TriangleCount(g, workers); got != want {
			t.Errorf("workers=%d: count %d, want %d", workers, got, want)
		}
	}
}

// An identity overlay (same adjacency as the parent) must count exactly
// like the parent, via the pooled overlay-DAG path.
func TestTriangleCountOverlayIdentity(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		g, err := graph.FromEdges(directed, randomEdges(rng, 40, 160))
		if err != nil {
			t.Fatal(err)
		}
		ov := graph.NewOverlay(g)
		if got, want := TriangleCount(&ov.Graph, 1), TriangleCount(g, 1); got != want {
			t.Errorf("directed=%v: overlay count %d, parent count %d", directed, got, want)
		}
	}
}

// A rewired overlay must count exactly like its materialized graph.
func TestTriangleCountOverlayMatchesMaterialized(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(13))
		g, err := graph.FromEdges(directed, randomEdges(rng, 30, 90))
		if err != nil {
			t.Fatal(err)
		}
		edges := g.EdgeList()
		swapEdges(edges, directed)
		ov := graph.NewOverlay(g)
		if err := ov.FillFromEdges(edges); err != nil {
			t.Fatalf("directed=%v: fill: %v", directed, err)
		}
		mat, err := ov.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := TriangleCount(&ov.Graph, 1), TriangleCount(mat, 1); got != want {
			t.Errorf("directed=%v: overlay count %d, materialized count %d", directed, got, want)
		}
	}
}

// An overlay's graph resolves to its parent's cached kernel, so sampling
// never adds kernels to the cache, and the clustering kernels on a
// rewired overlay equal the same calls on its materialized graph.
func TestTriangleKernelOverlayUsesParentKernel(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(29))
		g, err := graph.FromEdges(directed, randomEdges(rng, 40, 160))
		if err != nil {
			t.Fatal(err)
		}
		edges := g.EdgeList()
		swapEdges(edges, directed)
		ov := graph.NewOverlay(g)
		if err := ov.FillFromEdges(edges); err != nil {
			t.Fatalf("directed=%v: fill: %v", directed, err)
		}
		if TriangleKernelOf(&ov.Graph) != TriangleKernelOf(g) {
			t.Errorf("directed=%v: overlay resolved a kernel of its own", directed)
		}
		mat, err := ov.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := LocalClustering(&ov.Graph)
		if err != nil {
			t.Fatal(err)
		}
		want, err := LocalClustering(mat)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			//lint:ignore floateq the same integer counts must give the same floats
			if got[v] != want[v] {
				t.Fatalf("directed=%v: vertex %d: overlay local CC %v, materialized %v", directed, v, got[v], want[v])
			}
		}
		gotG, err := GlobalClustering(&ov.Graph)
		if err != nil {
			t.Fatal(err)
		}
		wantG, err := GlobalClustering(mat)
		if err != nil {
			t.Fatal(err)
		}
		//lint:ignore floateq the same integer counts must give the same floats
		if gotG != wantG {
			t.Errorf("directed=%v: overlay global CC %v, materialized %v", directed, gotG, wantG)
		}
	}
}

// swapEdges applies degree-preserving double-edge swaps where legal:
// (a→b),(c→d) ⇒ (a→d),(c→b), skipping swaps that would create self-loops
// or duplicates. Enough to make the overlay differ from the parent.
func swapEdges(edges []graph.Edge, directed bool) {
	has := make(map[[2]graph.VID]bool, len(edges))
	key := func(u, v graph.VID) [2]graph.VID {
		if !directed && u > v {
			u, v = v, u
		}
		return [2]graph.VID{u, v}
	}
	for _, e := range edges {
		has[key(e.From, e.To)] = true
	}
	for i := 0; i+1 < len(edges); i += 2 {
		e1, e2 := edges[i], edges[i+1]
		n1 := graph.Edge{From: e1.From, To: e2.To}
		n2 := graph.Edge{From: e2.From, To: e1.To}
		if n1.From == n1.To || n2.From == n2.To {
			continue
		}
		k1, k2 := key(n1.From, n1.To), key(n2.From, n2.To)
		if k1 == k2 || has[k1] || has[k2] {
			continue
		}
		delete(has, key(e1.From, e1.To))
		delete(has, key(e2.From, e2.To))
		has[k1], has[k2] = true, true
		edges[i], edges[i+1] = n1, n2
	}
}

// Steady-state counting against the same graph must not allocate: the
// kernel and its DAG are cached, and the serial pass runs in place.
func TestTriangleCountSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, err := graph.FromEdges(false, randomEdges(rng, 200, 800))
	if err != nil {
		t.Fatal(err)
	}
	TriangleCount(g, 1) // warm the kernel cache
	if allocs := testing.AllocsPerRun(20, func() { TriangleCount(g, 1) }); allocs != 0 {
		t.Errorf("TriangleCount allocated %.1f per call on a warm kernel", allocs)
	}
}

// The galloping fallback (hub row >> low row) must agree with the plain
// merge. A star-plus-clique graph exercises exactly that skew.
func TestGallopingIntersection(t *testing.T) {
	edges := make([][2]int64, 0, 256)
	// Clique on 0..5.
	for i := int64(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, [2]int64{i, j})
		}
	}
	// Hub 0 additionally linked to 6..199: its row dwarfs every other.
	for v := int64(6); v < 200; v++ {
		edges = append(edges, [2]int64{0, v})
	}
	g := mustGraph(t, false, edges)
	want := naiveTriangleCount(t, g)
	if got := TriangleCount(g, 1); got != want {
		t.Errorf("skewed graph: kernel %d, naive %d", got, want)
	}

	// Unit-level: gallop and merge agree on assorted sorted slices.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		short := sortedUnique(rng, 5, 1000)
		long := sortedUnique(rng, 400, 1000)
		var merged int64
		i, j := 0, 0
		for i < len(short) && j < len(long) {
			x, y := short[i], long[j]
			if x == y {
				merged++
			}
			if x <= y {
				i++
			}
			if y <= x {
				j++
			}
		}
		if got := gallopCount(short, long); got != merged {
			t.Fatalf("trial %d: gallop %d, merge %d", trial, got, merged)
		}
	}
}

func sortedUnique(rng *rand.Rand, k int, max int32) []int32 {
	seen := make(map[int32]bool, k)
	out := make([]int32, 0, k)
	for len(out) < k {
		x := rng.Int31n(max)
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for i := 1; i < len(out); i++ {
		x := out[i]
		j := i - 1
		for j >= 0 && out[j] > x {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = x
	}
	return out
}

// naiveSetTriangles counts in-set triangles by cubic enumeration over the
// sorted members, using HasEdge in either direction.
func naiveSetTriangles(g *graph.Graph, members []graph.VID) int64 {
	linked := func(a, b graph.VID) bool {
		return g.HasEdge(a, b) || (g.Directed() && g.HasEdge(b, a))
	}
	var t int64
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if !linked(members[i], members[j]) {
				continue
			}
			for k := j + 1; k < len(members); k++ {
				if linked(members[i], members[k]) && linked(members[j], members[k]) {
					t++
				}
			}
		}
	}
	return t
}

// reciprocalEdges draws k random arcs over n vertices and adds each
// one's reverse with probability p, so about 2p/(1+p) of the arcs of a
// directed graph built from them are reciprocated (half at p = 1/3),
// which randomEdges seldom yields.
func reciprocalEdges(rng *rand.Rand, n, k int, p float64) [][2]int64 {
	out := randomEdges(rng, n, k)
	for _, e := range out[:k] {
		if rng.Float64() < p {
			out = append(out, [2]int64{e[1], e[0]})
		}
	}
	return out
}

// Property: SetTriangles matches cubic enumeration on random graphs and
// random member subsets: directed and undirected, and directed with
// about half the arcs reciprocated, where a vertex on both the out- and
// the in-row of a neighbour must count once.
func TestQuickSetTrianglesMatchesNaive(t *testing.T) {
	matches := func(rng *rand.Rand, g *graph.Graph) bool {
		n := g.NumVertices()
		members := make([]graph.VID, 0, n)
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				members = append(members, graph.VID(v))
			}
		}
		set := graph.SetOf(g, members)
		return SetTriangles(g, set) == naiveSetTriangles(g, set.SortedMembers())
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.FromEdges(seed%2 == 0, randomEdges(rng, 20, 60))
		if err == nil && !matches(rng, g) {
			return false
		}
		g, err = graph.FromEdges(true, reciprocalEdges(rng, 20, 50, 1.0/3))
		return err != nil || matches(rng, g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Every value SampledClustering returns equals, bit for bit, the
// LocalClustering value at the vertex it sampled: on undirected graphs,
// on directed graphs with about half the arcs reciprocated, and on a
// rewired overlay's graph, with sample counts on both sides of the
// n/sweepShare switch to the full sweep. A hub linked to every vertex
// gives long rows.
func TestSampledClusteringMatchesLocalClustering(t *testing.T) {
	check := func(name string, g *graph.Graph) {
		t.Helper()
		full, err := LocalClustering(g)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		for _, samples := range []int{1, n / 8, (n - 1) / sweepShare, n/sweepShare + 1, n / 3, n - 1} {
			got, err := SampledClustering(g, samples, rand.New(rand.NewSource(int64(samples))))
			if err != nil {
				t.Fatal(err)
			}
			picks := partialPerm(n, samples, rand.New(rand.NewSource(int64(samples))))
			for i, v := range picks {
				if math.Float64bits(got[i]) != math.Float64bits(full[v]) {
					t.Fatalf("%s: vertex %d: sampled %v, LocalClustering %v", name, v, got[i], full[v])
				}
			}
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		edges := randomEdges(rng, 60, 300)
		for v := int64(1); v < 60; v++ {
			edges = append(edges, [2]int64{0, v})
		}
		g, err := graph.FromEdges(false, edges)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("undirected seed %d", seed), g)

		dg, err := graph.FromEdges(true, reciprocalEdges(rng, 60, 250, 1.0/3))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("reciprocal directed seed %d", seed), dg)

		for _, base := range []*graph.Graph{g, dg} {
			rewired := base.EdgeList()
			swapEdges(rewired, base.Directed())
			ov := graph.NewOverlay(base)
			if err := ov.FillFromEdges(rewired); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("overlay directed=%v seed %d", base.Directed(), seed), &ov.Graph)
		}
	}
}

// SampledClustering sweeps over a kernel of its own on both sides of
// n/sweepShare, so the graphs it samples stay out of the kernel cache.
func TestSampledClusteringLeavesKernelCache(t *testing.T) {
	g, err := graph.FromEdges(false, randomEdges(rand.New(rand.NewSource(5)), 40, 160))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, samples := range []int{n/sweepShare + 1, n} {
		if _, err := SampledClustering(g, samples, rand.New(rand.NewSource(1))); err != nil {
			t.Fatal(err)
		}
		if _, cached := triKernels.Load(g); cached {
			t.Fatalf("%d of %d samples: the graph entered the kernel cache", samples, n)
		}
	}
}

// SetTriangles on an overlay must equal the count on its materialized
// graph — the cohesion null model depends on this equivalence.
func TestSetTrianglesOverlayMatchesMaterialized(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(23))
		g, err := graph.FromEdges(directed, randomEdges(rng, 30, 120))
		if err != nil {
			t.Fatal(err)
		}
		edges := g.EdgeList()
		swapEdges(edges, directed)
		ov := graph.NewOverlay(g)
		if err := ov.FillFromEdges(edges); err != nil {
			t.Fatal(err)
		}
		mat, err := ov.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		members := make([]graph.VID, 0, g.NumVertices()/2)
		for v := 0; v < g.NumVertices(); v += 2 {
			members = append(members, graph.VID(v))
		}
		ovSet := graph.SetOf(&ov.Graph, members)
		if got, want := SetTriangles(&ov.Graph, ovSet), SetTriangles(mat, ovSet); got != want {
			t.Errorf("directed=%v: overlay set count %d, materialized %d", directed, got, want)
		}
	}
}

// partialPerm must emit distinct in-range vertices, deterministically for
// a seed, for every samples/n combination.
func TestPartialPerm(t *testing.T) {
	for _, tc := range []struct{ n, samples int }{{10, 3}, {100, 99}, {57, 1}, {8, 8}} {
		a := partialPerm(tc.n, tc.samples, rand.New(rand.NewSource(3)))
		b := partialPerm(tc.n, tc.samples, rand.New(rand.NewSource(3)))
		if len(a) != tc.samples {
			t.Fatalf("n=%d samples=%d: got %d picks", tc.n, tc.samples, len(a))
		}
		seen := make(map[graph.VID]bool, len(a))
		for i, v := range a {
			if v != b[i] {
				t.Fatalf("n=%d samples=%d: non-deterministic pick at %d", tc.n, tc.samples, i)
			}
			if v < 0 || int(v) >= tc.n || seen[v] {
				t.Fatalf("n=%d samples=%d: bad or repeated pick %d", tc.n, tc.samples, v)
			}
			seen[v] = true
		}
	}
}

// GlobalClustering agrees with the pre-kernel formula on known graphs.
func TestGlobalClusteringKernel(t *testing.T) {
	k4 := mustGraph(t, false, [][2]int64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if got, err := GlobalClustering(k4); err != nil || got != 1 {
		t.Errorf("K4 transitivity = %v (err %v), want 1", got, err)
	}
	star := mustGraph(t, false, [][2]int64{{0, 1}, {0, 2}, {0, 3}})
	if got, err := GlobalClustering(star); err != nil || got != 0 {
		t.Errorf("star transitivity = %v (err %v), want 0", got, err)
	}
}
