package graphalgo

import (
	"math/rand"

	"gpluscircles/internal/graph"
)

// LocalClustering returns the local clustering coefficient of every
// vertex: the fraction of pairs of neighbours that are themselves
// connected (Section IV-A2). Directed graphs are measured on their
// undirected projection, matching the convention of the Google+
// measurement studies the paper compares against (a link in either
// direction connects two neighbours). Vertices of degree < 2 have
// coefficient 0.
//
// The sweep enumerates each triangle once on an oriented DAG built for
// the call and credits all three corners, so nothing outlives the call
// and a graph swept once is freed with its caller.
func LocalClustering(g *graph.Graph) []float64 {
	d := newTriDAG(g)
	n := g.NumVertices()
	counts := make([]int64, n) // triangles through each vertex, rank space
	for r := 0; r < n; r++ {
		row := d.adj[d.off[r]:d.off[r+1]]
		for i, a := range row {
			rest := row[i+1:]
			if len(rest) == 0 {
				break
			}
			rowA := d.row(a)
			i2, j2 := 0, 0
			for i2 < len(rest) && j2 < len(rowA) {
				x, y := rest[i2], rowA[j2]
				if x == y {
					counts[r]++
					counts[a]++
					counts[x]++
					i2++
					j2++
					continue
				}
				if x < y {
					i2++
				} else {
					j2++
				}
			}
		}
	}
	out := make([]float64, n)
	for r, links := range counts {
		v := d.order[r]
		deg := int(d.udeg[v])
		if deg < 2 {
			continue
		}
		out[v] = 2 * float64(links) / (float64(deg) * float64(deg-1))
	}
	return out
}

// sweepShare sets where SampledClustering stops counting vertex by
// vertex: from n/sweepShare samples on, one sweep over every triangle
// costs less than stamping each sample's neighbourhood.
// On the five suite data sets at scale 0.5 (2-core VM), the sweep broke
// even at 13–39 % of the vertices sampled. On Google+ with 1,500 of its
// 1,670 vertices sampled it took 11–15 ms against 61 ms vertex by vertex.
const sweepShare = 4

// SampledClustering computes local clustering coefficients for `samples`
// uniformly chosen vertices (without replacement; when samples >= n it
// returns every vertex's, as LocalClustering does). From n/sweepShare
// samples on, the values are read off one sweep over every triangle;
// they are the same bits either way.
//
// Vertex selection uses a sparse partial Fisher–Yates shuffle: only the
// first `samples` draws of the permutation are realized, so picking a few
// hundred vertices out of millions allocates no n-entry permutation.
func SampledClustering(g *graph.Graph, samples int, rng *rand.Rand) ([]float64, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	n := g.NumVertices()
	if samples >= n {
		return LocalClustering(g), nil
	}
	picks := partialPerm(n, samples, rng)
	if sweepShare*samples >= n {
		all := LocalClustering(g)
		out := make([]float64, samples)
		for i, v := range picks {
			out[i] = all[v]
		}
		return out, nil
	}
	out := make([]float64, 0, samples)
	s := triScratchPool.Get().(*triScratch)
	for _, v := range picks {
		out = append(out, localCC(g, v, s))
	}
	triScratchPool.Put(s)
	return out, nil
}

// partialPerm draws the first `samples` entries of a uniform permutation
// of [0, n) with a sparse Fisher–Yates: displaced slots live in a small
// map instead of an n-entry array, so cost is O(samples), not O(n).
func partialPerm(n, samples int, rng *rand.Rand) []graph.VID {
	swapped := make(map[int]int, samples)
	at := func(i int) int {
		if j, ok := swapped[i]; ok {
			return j
		}
		return i
	}
	out := make([]graph.VID, samples)
	for i := 0; i < samples; i++ {
		j := i + rng.Intn(n-i)
		out[i] = graph.VID(at(j))
		swapped[j] = at(i)
	}
	return out
}

// localCC computes the local clustering coefficient of x on the
// undirected projection of g: it stamps x's neighbours, then each
// neighbour a counts the stamped vertices above a on its own row, so
// every linked pair of neighbours is counted once.
func localCC(g *graph.Graph, x graph.VID, s *triScratch) float64 {
	row := undirRow(g, x, &s.a)
	deg := len(row)
	if deg < 2 {
		return 0
	}
	e := s.nextEpoch(g.NumVertices())
	for _, a := range row {
		s.stamp[a] = e
	}
	var links int64
	for _, a := range row {
		links += stampedAbove(g, a, s.stamp, e)
	}
	return 2 * float64(links) / (float64(deg) * float64(deg-1))
}
