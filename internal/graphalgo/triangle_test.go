package graphalgo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"gpluscircles/internal/graph"
)

// naiveLocalClustering is the plain per-vertex reference: project the
// graph, then mark each vertex's neighbours and count the linked pairs.
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
		got := LocalClustering(g)
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

// LocalClustering on a rewired overlay's graph equals the same call on
// its materialized graph.
func TestLocalClusteringOverlayMatchesMaterialized(t *testing.T) {
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
		mat, err := ov.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		got, want := LocalClustering(&ov.Graph), LocalClustering(mat)
		for v := range want {
			//lint:ignore floateq the same integer counts must give the same floats
			if got[v] != want[v] {
				t.Fatalf("directed=%v: vertex %d: overlay local CC %v, materialized %v", directed, v, got[v], want[v])
			}
		}
	}
}

// The clustering calls keep nothing that refers to the graph they
// measured: after LocalClustering and SampledClustering on both sides of
// n/sweepShare, a dropped graph is collected.
func TestClusteringDoesNotRetainGraph(t *testing.T) {
	collected := make(chan struct{})
	measure := func() {
		g, err := graph.FromEdges(true, reciprocalEdges(rand.New(rand.NewSource(31)), 80, 400, 1.0/3))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(g, func(*graph.Graph) { close(collected) })
		LocalClustering(g)
		n := g.NumVertices()
		for _, samples := range []int{1, n / 8, n/sweepShare + 1, n} {
			if _, err := SampledClustering(g, samples, rand.New(rand.NewSource(1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the graph was not collected after the clustering calls returned")
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
		full := LocalClustering(g)
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
