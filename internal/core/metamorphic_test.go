package core

import (
	"math"
	"math/rand"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/score"
	"gpluscircles/internal/synth"
)

// TestScoresInvariantUnderRelabeling is a metamorphic test of the
// paper's four scores plus cohesion: rebuilding a data set's graph from
// its edge list under a random relabeling of the external vertex IDs,
// with the input edges shuffled and partly duplicated, must leave every
// group's scores bit-identical, with each group's members also listed
// in a shuffled order. Relabeling permutes the dense indices and the
// shuffle the set's iteration order, so degree sums are taken in a
// different order; the scores still agree because cut counts, triangle
// counts and degree sums are integers (and integer-valued floats),
// whose sums do not depend on order. Builder deduplicates repeated
// edges, so duplicates must be idempotent. Scale 0.5 keeps the run well
// under a second while giving groups large enough that summing
// non-integer degree terms in a different order does change a bit.
//
// The bijection reaches both ends of the int64 range, negative IDs and
// IDs above 2^40, so it also covers the external-ID lookup away from
// the small dense IDs the generators emit.
func TestScoresInvariantUnderRelabeling(t *testing.T) {
	s := NewSuite(SuiteOptions{Scale: 0.5, Seed: 3})
	fns := append(score.PaperFuncs(), score.Cohesion())
	for _, load := range []func() (*synth.Dataset, error){s.GPlus, s.LiveJournal} {
		ds, err := load()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(ds.Name, func(t *testing.T) {
			g := ds.Graph
			rng := rand.New(rand.NewSource(int64(g.NumEdges())))
			relabel := randomRelabeling(rng, g.ExternalIDs())
			h := rebuildRelabeled(t, rng, g, relabel)
			if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() || h.Directed() != g.Directed() {
				t.Fatalf("relabeled graph is %d vertices / %d edges (directed %v), want %d / %d (directed %v)",
					h.NumVertices(), h.NumEdges(), h.Directed(), g.NumVertices(), g.NumEdges(), g.Directed())
			}

			gctx, hctx := score.NewContext(g), score.NewContext(h)
			for _, grp := range ds.Groups {
				mapped := make([]graph.VID, len(grp.Members))
				for i, v := range grp.Members {
					w, ok := h.Lookup(relabel[g.ExternalID(v)])
					if !ok {
						t.Fatalf("group %s: relabeled member of %d missing", grp.Name, g.ExternalID(v))
					}
					mapped[i] = w
				}
				rng.Shuffle(len(mapped), func(i, j int) { mapped[i], mapped[j] = mapped[j], mapped[i] })
				want := score.Evaluate(gctx, grp.Members, fns)
				got := score.Evaluate(hctx, mapped, fns)
				for _, f := range fns {
					if math.Float64bits(got[f.Name]) != math.Float64bits(want[f.Name]) {
						t.Errorf("group %s: %s = %v after relabeling, want %v", grp.Name, f.Name, got[f.Name], want[f.Name])
					}
				}
			}
		})
	}
}

// randomRelabeling maps every ID in ids to a distinct new ID: the two
// extremes of int64 first, then draws that mix negative IDs with IDs
// beyond 2^40.
func randomRelabeling(rng *rand.Rand, ids []int64) map[int64]int64 {
	out := make(map[int64]int64, len(ids))
	used := make(map[int64]bool, len(ids))
	order := rng.Perm(len(ids))
	for i, j := range order {
		var id int64
		switch i {
		case 0:
			id = math.MinInt64
		case 1:
			id = math.MaxInt64
		default:
			for id = 0; id == 0 || used[id]; {
				id = rng.Int63n(1 << 50)
				if rng.Intn(2) == 0 {
					id = -id
				}
			}
		}
		used[id] = true
		out[ids[j]] = id
	}
	return out
}

// rebuildRelabeled feeds g's edges through a fresh Builder under the
// relabeling, shuffled, with about half of them repeated (undirected
// repeats reversed) and every vertex also added explicitly, so isolated
// vertices survive.
func rebuildRelabeled(t *testing.T, rng *rand.Rand, g *graph.Graph, relabel map[int64]int64) *graph.Graph {
	t.Helper()
	var edges [][2]int64
	g.Edges(func(e graph.Edge) bool {
		u, v := relabel[g.ExternalID(e.From)], relabel[g.ExternalID(e.To)]
		edges = append(edges, [2]int64{u, v})
		if rng.Intn(2) == 0 {
			if !g.Directed() {
				u, v = v, u
			}
			edges = append(edges, [2]int64{u, v})
		}
		return true
	})
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	b := graph.NewBuilder(g.Directed())
	for _, i := range rng.Perm(g.NumVertices()) {
		b.AddVertex(relabel[g.ExternalID(graph.VID(i))])
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	h, err := b.Build()
	if err != nil {
		t.Fatalf("build relabeled graph: %v", err)
	}
	return h
}
