package graphalgo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpluscircles/internal/graph"
)

func mustGraph(t *testing.T, directed bool, edges [][2]int64) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(directed, edges)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	return g
}

// path04 is the undirected path 0-1-2-3-4.
func path04(t *testing.T) *graph.Graph {
	return mustGraph(t, false, [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
}

func TestBFSDistancesPath(t *testing.T) {
	g := path04(t)
	src, _ := g.Lookup(0)
	dist := BFSDistances(g, src, Out)
	for ext := int64(0); ext <= 4; ext++ {
		v, _ := g.Lookup(ext)
		if dist[v] != int32(ext) {
			t.Errorf("dist[%d] = %d, want %d", ext, dist[v], ext)
		}
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	g := mustGraph(t, true, [][2]int64{{0, 1}, {2, 3}})
	src, _ := g.Lookup(0)
	dist := BFSDistances(g, src, Out)
	v3, _ := g.Lookup(3)
	if dist[v3] != -1 {
		t.Errorf("dist to unreachable = %d, want -1", dist[v3])
	}
}

func TestBFSDirections(t *testing.T) {
	g := mustGraph(t, true, [][2]int64{{0, 1}, {1, 2}})
	v2, _ := g.Lookup(2)
	v0, _ := g.Lookup(0)
	distOut := BFSDistances(g, v2, Out)
	if distOut[v0] != -1 {
		t.Errorf("Out BFS from sink reached source: %d", distOut[v0])
	}
	distIn := BFSDistances(g, v2, In)
	if distIn[v0] != 2 {
		t.Errorf("In BFS dist = %d, want 2", distIn[v0])
	}
	distBoth := BFSDistances(g, v2, Both)
	if distBoth[v0] != 2 {
		t.Errorf("Both BFS dist = %d, want 2", distBoth[v0])
	}
}

func TestComponentsTwoIslands(t *testing.T) {
	g := mustGraph(t, false, [][2]int64{{0, 1}, {2, 3}})
	labels, count := Components(g)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	v0, _ := g.Lookup(0)
	v1, _ := g.Lookup(1)
	v2, _ := g.Lookup(2)
	if labels[v0] != labels[v1] || labels[v0] == labels[v2] {
		t.Errorf("labels = %v", labels)
	}
}

func TestComponentsDirectedIsWeak(t *testing.T) {
	// 0 -> 1 <- 2 is weakly connected.
	g := mustGraph(t, true, [][2]int64{{0, 1}, {2, 1}})
	_, count := Components(g)
	if count != 1 {
		t.Errorf("weak components = %d, want 1", count)
	}
}

func TestLargestComponent(t *testing.T) {
	g := mustGraph(t, false, [][2]int64{{0, 1}, {1, 2}, {10, 11}})
	lc := LargestComponent(g)
	if len(lc) != 3 {
		t.Errorf("largest component size = %d, want 3", len(lc))
	}
}

func TestComponentSizes(t *testing.T) {
	g := mustGraph(t, false, [][2]int64{{0, 1}, {1, 2}, {10, 11}})
	count, largest := ComponentSizes(g)
	if count != 2 || largest != 3 {
		t.Errorf("ComponentSizes = (%d,%d), want (2,3)", count, largest)
	}
}

func TestExactDistancesPath(t *testing.T) {
	g := path04(t)
	st := ExactDistances(g)
	if st.Diameter != 4 {
		t.Errorf("Diameter = %d, want 4", st.Diameter)
	}
	// Sum over ordered pairs of |i-j| for i,j in 0..4 = 2*(sum of all
	// pairwise distances) = 2*20 = 40 over 20 ordered pairs -> ASP 2.
	if math.Abs(st.ASP-2) > 1e-12 {
		t.Errorf("ASP = %v, want 2", st.ASP)
	}
}

func TestSampledDistancesMatchesExactWhenFull(t *testing.T) {
	g := path04(t)
	rng := rand.New(rand.NewSource(1))
	st, err := SampledDistances(g, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact := ExactDistances(g)
	if st.Diameter != exact.Diameter || math.Abs(st.ASP-exact.ASP) > 1e-12 {
		t.Errorf("sampled %+v != exact %+v", st, exact)
	}
}

func TestSampledDistancesNilRNG(t *testing.T) {
	if _, err := SampledDistances(path04(t), 2, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestLocalClusteringTriangle(t *testing.T) {
	g := mustGraph(t, false, [][2]int64{{0, 1}, {1, 2}, {2, 0}})
	cc := LocalClustering(g)
	for v, c := range cc {
		if c != 1 {
			t.Errorf("cc[%d] = %v, want 1", v, c)
		}
	}
}

func TestLocalClusteringStar(t *testing.T) {
	g := mustGraph(t, false, [][2]int64{{0, 1}, {0, 2}, {0, 3}})
	cc := LocalClustering(g)
	hub, _ := g.Lookup(0)
	if cc[hub] != 0 {
		t.Errorf("cc[hub] = %v, want 0", cc[hub])
	}
}

func TestLocalClusteringDirectedProjection(t *testing.T) {
	// Directed triangle with one reciprocal pair still fully clusters
	// after projection.
	g := mustGraph(t, true, [][2]int64{{0, 1}, {1, 0}, {1, 2}, {2, 0}})
	cc := LocalClustering(g)
	for v, c := range cc {
		if c != 1 {
			t.Errorf("cc[%d] = %v, want 1", v, c)
		}
	}
}

func TestTriangleCountKnown(t *testing.T) {
	// Two triangles sharing the edge {1,2}.
	g := mustGraph(t, false, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {1, 3}, {2, 3}})
	if tri := SetTriangles(g, graph.SetOf(g, g.Vertices())); tri != 2 {
		t.Errorf("SetTriangles over every vertex = %d, want 2", tri)
	}
}

func TestSampledClusteringSubset(t *testing.T) {
	g := mustGraph(t, false, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	rng := rand.New(rand.NewSource(2))
	cc, err := SampledClustering(g, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cc) != 2 {
		t.Errorf("sample size = %d, want 2", len(cc))
	}
	for _, c := range cc {
		if c < 0 || c > 1 {
			t.Errorf("cc out of [0,1]: %v", c)
		}
	}
}

func randomEdges(rng *rand.Rand, n, k int) [][2]int64 {
	out := make([][2]int64, k)
	for i := range out {
		out[i] = [2]int64{rng.Int63n(int64(n)), rng.Int63n(int64(n))}
	}
	return out
}

// Property: component labels partition vertices and vertices joined by an
// edge share a label.
func TestQuickComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.FromEdges(seed%2 == 0, randomEdges(rng, 25, 40))
		if err != nil {
			return true
		}
		labels, count := Components(g)
		for _, l := range labels {
			if l < 0 || int(l) >= count {
				return false
			}
		}
		ok := true
		g.Edges(func(e graph.Edge) bool {
			if labels[e.From] != labels[e.To] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: local clustering coefficients are in [0,1].
func TestQuickClusteringBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.FromEdges(seed%2 == 0, randomEdges(rng, 20, 60))
		if err != nil {
			return true
		}
		cc := LocalClustering(g)
		for _, c := range cc {
			if c < 0 || c > 1 || math.IsNaN(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BFS distances satisfy the triangle property along edges —
// neighbouring vertices differ by at most 1 when both reached.
func TestQuickBFSLipschitz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.FromEdges(false, randomEdges(rng, 20, 40))
		if err != nil {
			return true
		}
		dist := BFSDistances(g, 0, Out)
		ok := true
		g.Edges(func(e graph.Edge) bool {
			a, b := dist[e.From], dist[e.To]
			if a >= 0 && b >= 0 {
				d := a - b
				if d < -1 || d > 1 {
					ok = false
					return false
				}
			}
			if (a >= 0) != (b >= 0) {
				ok = false // one endpoint reached, the other not: impossible undirected
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
