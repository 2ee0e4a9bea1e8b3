package nullmodel

import (
	"math"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/par/partest"
)

func halfSet(g *graph.Graph) *graph.Set {
	var members []graph.VID
	for v := 0; v < g.NumVertices(); v += 2 {
		members = append(members, graph.VID(v))
	}
	return graph.SetOf(g, members)
}

// TestTriangleExpectationWorkersBitIdentical asserts the empirical
// triangle null is byte-identical across GOMAXPROCS values: the per-sample
// seeds fix each overlay's topology, SetTriangles computes exact integer
// counts, and the sample-order accumulation fixes the float sum.
func TestTriangleExpectationWorkersBitIdentical(t *testing.T) {
	g := randomConnectedGraph(t, 41, 90, 300, false)
	set := halfSet(g)

	var baseline uint64
	for i, workers := range []int{1, 4, 8} {
		partest.GOMAXPROCS(t, workers)
		est, err := NewEmpiricalEstimator(g, EstimatorOptions{
			Samples: 8, SwapsPerEdge: 3, Seed: 77,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		bits := math.Float64bits(est.TriangleExpectation(set))
		est.Close()
		if i == 0 {
			baseline = bits
			continue
		}
		if bits != baseline {
			t.Errorf("workers=%d: expectation bits %#x, want %#x (workers=1)", workers, bits, baseline)
		}
	}
}

// TestTriangleExpectationMatchesMaterialized asserts SetTriangles on each
// overlay sample equals the count on the materialized graph, so the
// overlay-based estimator is exactly the graph-based one.
func TestTriangleExpectationMatchesMaterialized(t *testing.T) {
	g := randomConnectedGraph(t, 42, 70, 250, false)
	set := halfSet(g)
	est, err := NewEmpiricalEstimator(g, EstimatorOptions{Samples: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()

	var total float64
	for i := 0; i < est.Samples(); i++ {
		ov := est.Sample(i)
		mat, err := est.overlays[i].Materialize()
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		ovTri := graphalgo.SetTriangles(ov, set)
		matTri := graphalgo.SetTriangles(mat, set)
		if ovTri != matTri {
			t.Errorf("sample %d: overlay %d triangles, materialized %d", i, ovTri, matTri)
		}
		total += float64(ovTri)
	}
	want := total / float64(est.Samples())
	//lint:ignore floateq same integer counts summed in the same order
	if got := est.TriangleExpectation(set); got != want {
		t.Errorf("TriangleExpectation = %v, want %v", got, want)
	}
}

// TestChungLuTrianglesMatchesTripleSum checks the closed form against the
// brute-force sum of d_u²·d_v²·d_w²/(2m)³ over member triples.
func TestChungLuTrianglesMatchesTripleSum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomConnectedGraph(t, 50+seed, 25, 60, seed%2 == 0)
		set := halfSet(g)
		members := set.Members()
		vol := 2 * float64(g.NumEdges())
		var want float64
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				for k := j + 1; k < len(members); k++ {
					du := float64(g.Degree(members[i]))
					dv := float64(g.Degree(members[j]))
					dw := float64(g.Degree(members[k]))
					want += du * du * dv * dv * dw * dw / (vol * vol * vol)
				}
			}
		}
		got := ChungLuTriangles(g, set)
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("seed %d: ChungLuTriangles = %v, triple sum = %v", seed, got, want)
		}
	}
}

func TestChungLuTrianglesEdgeCases(t *testing.T) {
	g, err := graph.FromEdges(false, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ChungLuTriangles(g, graph.SetOf(g, []graph.VID{0, 1})); got != 0 {
		t.Errorf("|C|=2: %v, want 0", got)
	}
	if got := ChungLuTriangles(g, graph.SetOf(g, nil)); got != 0 {
		t.Errorf("empty set: %v, want 0", got)
	}
}

// TestChungLuTrianglesNearEmpirical sanity-checks the analytic value
// against the rewire-sample estimator on a dense-ish graph, where the
// clamp-free Chung–Lu approximation should land in the right ballpark.
func TestChungLuTrianglesNearEmpirical(t *testing.T) {
	g := randomConnectedGraph(t, 60, 50, 500, false)
	set := halfSet(g)
	est, err := NewEmpiricalEstimator(g, EstimatorOptions{Samples: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	emp := est.TriangleExpectation(set)
	ana := ChungLuTriangles(g, set)
	if emp == 0 || ana == 0 {
		t.Fatalf("degenerate comparison: empirical %v, analytic %v", emp, ana)
	}
	if rel := math.Abs(emp-ana) / emp; rel > 0.5 {
		t.Errorf("empirical %v vs analytic %v: relative error %v > 0.5", emp, ana, rel)
	}
}
