package graphalgo

import (
	"errors"
	"math/rand"
	"testing"

	"gpluscircles/internal/graph"
)

// bruteSweep rescores the prefix set from scratch with graph.Cut — the
// reference the incremental kernel must match bit for bit.
func bruteSweep(g graph.View, order []graph.VID) []float64 {
	out := make([]float64, 0, len(order))
	set := graph.NewSet(g.NumVertices())
	for _, w := range order {
		set.Add(w)
		st := graph.Cut(g, set)
		out = append(out, SweepConductance(st.Internal, st.Boundary))
	}
	return out
}

// randomOrder returns a random permutation prefix of k distinct vertices.
func randomOrder(rng *rand.Rand, n, k int) []graph.VID {
	perm := rng.Perm(n)
	order := make([]graph.VID, k)
	for i := 0; i < k; i++ {
		order[i] = graph.VID(perm[i])
	}
	return order
}

func TestSweepCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, directed := range []bool{false, true} {
		sc := NewSweepCutter(0) // grows on demand
		var conds []float64
		for trial := 0; trial < 25; trial++ {
			n := 2 + rng.Intn(40)
			edges := randomEdges(rng, n, rng.Intn(4*n))
			// Every vertex must exist even if edgeless.
			for v := int64(0); v < int64(n); v++ {
				edges = append(edges, [2]int64{v, (v + 1) % int64(n)})
			}
			g, err := graph.FromEdges(directed, edges)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			order := randomOrder(rng, g.NumVertices(), 1+rng.Intn(g.NumVertices()))
			conds, err = sc.Conductances(g, order, conds)
			if err != nil {
				t.Fatalf("Conductances: %v", err)
			}
			want := bruteSweep(g, order)
			if len(conds) != len(want) {
				t.Fatalf("got %d prefixes, want %d", len(conds), len(want))
			}
			for i := range want {
				if conds[i] != want[i] { //lint:ignore floateq bit-identical contract with brute force
					t.Fatalf("directed=%v trial=%d prefix %d: incremental %v, brute %v",
						directed, trial, i, conds[i], want[i])
				}
			}
		}
	}
}

// The cut-update invariants the incremental formulas rely on: as the
// prefix grows, the internal edge count and the prefix volume are
// nondecreasing, volume == 2*internal + boundary at every step, and the
// resulting conductance stays in [0, 1].
func TestSweepCutMonotoneInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, directed := range []bool{false, true} {
		for trial := 0; trial < 10; trial++ {
			n := 3 + rng.Intn(30)
			g, err := graph.FromEdges(directed, randomEdges(rng, n, 3*n))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			n = g.NumVertices()
			order := randomOrder(rng, n, n)
			set := graph.NewSet(n)
			var prev graph.CutStats
			for i, w := range order {
				set.Add(w)
				st := graph.Cut(g, set)
				if st.Internal < prev.Internal {
					t.Fatalf("prefix %d: internal decreased %d -> %d", i, prev.Internal, st.Internal)
				}
				if st.DegreeSum < prev.DegreeSum {
					t.Fatalf("prefix %d: volume decreased %d -> %d", i, prev.DegreeSum, st.DegreeSum)
				}
				// Both directed and undirected: every internal edge (arc)
				// contributes two endpoint-degrees inside C, every
				// boundary edge one.
				if st.DegreeSum != 2*st.Internal+st.Boundary {
					t.Fatalf("prefix %d: volume identity broken: deg=%d internal=%d boundary=%d",
						i, st.DegreeSum, st.Internal, st.Boundary)
				}
				c := SweepConductance(st.Internal, st.Boundary)
				if c < 0 || c > 1 {
					t.Fatalf("prefix %d: conductance %v outside [0,1]", i, c)
				}
				prev = st
			}
		}
	}
}

func TestSweepCutRejectsBadOrderings(t *testing.T) {
	g, err := graph.FromEdges(false, [][2]int64{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sc := NewSweepCutter(g.NumVertices())
	if _, err := sc.Conductances(g, []graph.VID{0, 1, 0}, nil); !errors.Is(err, ErrSweepDuplicate) {
		t.Fatalf("duplicate: got %v, want ErrSweepDuplicate", err)
	}
	if _, err := sc.Conductances(g, []graph.VID{0, 99}, nil); !errors.Is(err, ErrSweepRange) {
		t.Fatalf("range: got %v, want ErrSweepRange", err)
	}
	if _, err := sc.Conductances(g, []graph.VID{-1}, nil); !errors.Is(err, ErrSweepRange) {
		t.Fatalf("negative: got %v, want ErrSweepRange", err)
	}
	// The failed sweeps must have left the workspace clean: a full valid
	// sweep afterwards still matches brute force.
	order := []graph.VID{0, 1, 2}
	got, err := sc.Conductances(g, order, nil)
	if err != nil {
		t.Fatalf("clean sweep after errors: %v", err)
	}
	want := bruteSweep(g, order)
	for i := range want {
		if got[i] != want[i] { //lint:ignore floateq bit-identical contract with brute force
			t.Fatalf("workspace dirty after error: prefix %d got %v want %v", i, got[i], want[i])
		}
	}
}

func TestSweepCutEmptyOrder(t *testing.T) {
	g, err := graph.FromEdges(false, [][2]int64{{0, 1}})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	got, err := NewSweepCutter(2).Conductances(g, nil, nil)
	if err != nil {
		t.Fatalf("empty order: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty order produced %d values", len(got))
	}
}

// FuzzSweepCut decodes an arbitrary byte string into a random graph, a
// random score vector, and sweeps the score ordering: the incremental
// conductances must equal brute-force rescoring bit for bit and stay in
// [0, 1].
func FuzzSweepCut(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(30), false)
	f.Add(int64(2), uint8(5), uint8(0), true)
	f.Add(int64(99), uint8(1), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8, directed bool) {
		n := 1 + int(nRaw)%64
		rng := rand.New(rand.NewSource(seed))
		edges := randomEdges(rng, n, int(mRaw))
		for v := int64(0); v < int64(n); v++ {
			edges = append(edges, [2]int64{v, (v + 1) % int64(n)})
		}
		g, err := graph.FromEdges(directed, edges)
		if err != nil {
			t.Skip()
		}
		n = g.NumVertices()
		// A random score vector induces the sweep ordering, mirroring how
		// PPR scores drive real sweeps.
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		order := make([]graph.VID, n)
		for i := range order {
			order[i] = graph.VID(i)
		}
		// Insertion sort keeps the fuzz body dependency-free and makes
		// ties deterministic by vertex id.
		for i := 1; i < n; i++ {
			for j := i; j > 0; j-- {
				a, b := order[j-1], order[j]
				if scores[a] > scores[b] {
					break
				}
				if scores[a] < scores[b] {
					order[j-1], order[j] = b, a
					continue
				}
				if a > b { // tie: ascending vertex id
					order[j-1], order[j] = b, a
					continue
				}
				break
			}
		}
		got, err := NewSweepCutter(n).Conductances(g, order, nil)
		if err != nil {
			t.Fatalf("Conductances: %v", err)
		}
		want := bruteSweep(g, order)
		for i := range want {
			if got[i] != want[i] { //lint:ignore floateq bit-identical contract with brute force
				t.Fatalf("prefix %d: incremental %v, brute %v", i, got[i], want[i])
			}
			if got[i] < 0 || got[i] > 1 {
				t.Fatalf("prefix %d: conductance %v outside [0,1]", i, got[i])
			}
		}
	})
}
