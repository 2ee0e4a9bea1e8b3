package graphalgo

import (
	"errors"
	"math/rand"

	"gpluscircles/internal/graph"
)

// ErrNoRNG is returned by sampled estimators called without a random
// source.
var ErrNoRNG = errors.New("graphalgo: nil RNG")

// DistanceStats reports the node-separation metrics of Section IV-A3.
type DistanceStats struct {
	// Diameter is the longest shortest path observed. When Sources <
	// NumVertices this is a lower bound refined by double-sweep probing.
	Diameter int
	// ASP is the average shortest path length over all sampled reachable
	// pairs (excluding self-pairs).
	ASP float64
	// Sources is the number of BFS sources evaluated.
	Sources int
	// PairsSampled is the number of (source, reachable vertex) pairs that
	// contributed to ASP.
	PairsSampled int64
}

// ExactDistances runs a BFS from every vertex and returns exact diameter
// and average shortest path over all connected pairs, treating arcs as
// bidirectional (the paper measures separation on connectivity). Cost is
// O(n·(n+m)); intended for graphs up to a few hundred thousand edges.
func ExactDistances(g *graph.Graph) DistanceStats {
	n := g.NumVertices()
	st := acquireBFSState(n)
	defer releaseBFSState(st)
	var out DistanceStats
	var totalDist int64
	for s := 0; s < n; s++ {
		reached, ecc, distSum := st.run(g, graph.VID(s), Both)
		if int(ecc) > out.Diameter {
			out.Diameter = int(ecc)
		}
		totalDist += distSum
		out.PairsSampled += int64(reached - 1)
	}
	out.Sources = n
	if out.PairsSampled > 0 {
		out.ASP = float64(totalDist) / float64(out.PairsSampled)
	}
	return out
}

// SampledDistances estimates diameter and ASP from BFS runs on `sources`
// randomly chosen start vertices, plus a double-sweep refinement: after
// each BFS the farthest vertex found is used as the next source, which is
// the standard heuristic for tightening diameter lower bounds on social
// graphs. The returned diameter is a lower bound; ASP is an unbiased
// estimate under vertex sampling.
func SampledDistances(g *graph.Graph, sources int, rng *rand.Rand) (DistanceStats, error) {
	if rng == nil {
		return DistanceStats{}, ErrNoRNG
	}
	n := g.NumVertices()
	if n == 0 {
		return DistanceStats{}, nil
	}
	if sources >= n {
		return ExactDistances(g), nil
	}
	st := acquireBFSState(n)
	defer releaseBFSState(st)
	var out DistanceStats
	var totalDist int64

	src := graph.VID(rng.Intn(n))
	for i := 0; i < sources; i++ {
		reached, ecc, distSum := st.run(g, src, Both)
		if int(ecc) > out.Diameter {
			out.Diameter = int(ecc)
		}
		totalDist += distSum
		out.PairsSampled += int64(reached - 1)
		out.Sources++

		// Double sweep: half the time restart from the farthest vertex
		// just discovered (tightens the diameter bound), otherwise jump
		// to a fresh uniform vertex (keeps ASP representative).
		if i%2 == 0 {
			far := src
			for v := 0; v < n; v++ {
				if st.epoch[v] == st.cur && st.dist[v] == ecc {
					far = graph.VID(v)
					break
				}
			}
			src = far
		} else {
			src = graph.VID(rng.Intn(n))
		}
	}
	if out.PairsSampled > 0 {
		out.ASP = float64(totalDist) / float64(out.PairsSampled)
	}
	return out, nil
}
