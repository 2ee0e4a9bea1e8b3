package nullmodel

import (
	"errors"
	"fmt"
	"math/rand"

	"gpluscircles/internal/graph"
)

// ErrStubMatching is returned when stub matching cannot realize the
// degree sequence as a simple graph within the repair budget.
var ErrStubMatching = errors.New("nullmodel: stub matching failed to produce a simple graph")

// ConfigurationModel generates a random simple graph with (approximately
// maximum-entropy) the same degree sequence as g via stub matching:
// every edge endpoint becomes a stub, stubs are shuffled and paired, and
// collisions (self-loops, duplicate edges) are repaired by re-pairing
// with randomly chosen accepted edges. This is the classical alternative
// to the edge-swap chain in Rewire; the ablation benchmarks compare the
// two.
//
// For directed graphs, out-stubs are paired with in-stubs, preserving
// each vertex's in- and out-degree. For undirected graphs, stubs are
// paired among themselves, preserving total degree.
func ConfigurationModel(g *graph.Graph, rng *rand.Rand) (*graph.Graph, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	if g.Directed() {
		return directedConfigModel(g, rng)
	}
	return undirectedConfigModel(g, rng)
}

func directedConfigModel(g *graph.Graph, rng *rand.Rand) (*graph.Graph, error) {
	n := g.NumVertices()
	var outStubs, inStubs []graph.VID
	for v := 0; v < n; v++ {
		for k := 0; k < g.OutDegree(graph.VID(v)); k++ {
			outStubs = append(outStubs, graph.VID(v))
		}
		for k := 0; k < g.InDegree(graph.VID(v)); k++ {
			inStubs = append(inStubs, graph.VID(v))
		}
	}
	rng.Shuffle(len(inStubs), func(i, j int) { inStubs[i], inStubs[j] = inStubs[j], inStubs[i] })

	edges := make([]graph.Edge, len(outStubs))
	var present edgeSet
	present.reset(len(outStubs))
	isPending := make([]bool, len(outStubs))
	var pending []int // indices needing repair
	for i := range outStubs {
		e := graph.Edge{From: outStubs[i], To: inStubs[i]}
		edges[i] = e
		if e.From == e.To || present.add(pack(e.From, e.To)) {
			isPending[i] = true
			pending = append(pending, i)
		}
	}

	// Repair: swap the To endpoint of a bad edge with a random accepted
	// edge's To, provided both results are valid.
	maxAttempts := 200 * (len(pending) + 1)
	for attempt := 0; len(pending) > 0 && attempt < maxAttempts; attempt++ {
		idx := pending[len(pending)-1]
		j := rng.Intn(len(edges))
		if j == idx || isPending[j] {
			continue // partner must be an accepted edge
		}
		a, b := edges[idx], edges[j]
		na := graph.Edge{From: a.From, To: b.To}
		nb := graph.Edge{From: b.From, To: a.To}
		if na.From == na.To || nb.From == nb.To {
			continue
		}
		ka, kb2 := pack(na.From, na.To), pack(nb.From, nb.To)
		if ka == kb2 {
			continue
		}
		if present.has(ka) || present.has(kb2) {
			continue
		}
		present.del(pack(b.From, b.To))
		present.add(ka)
		present.add(kb2)
		edges[idx], edges[j] = na, nb
		isPending[idx] = false
		pending = pending[:len(pending)-1]
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("%w: %d directed collisions unresolved", ErrStubMatching, len(pending))
	}
	return buildFromEdges(g, edges)
}

func undirectedConfigModel(g *graph.Graph, rng *rand.Rand) (*graph.Graph, error) {
	n := g.NumVertices()
	var stubs []graph.VID
	for v := 0; v < n; v++ {
		for k := 0; k < g.Degree(graph.VID(v)); k++ {
			stubs = append(stubs, graph.VID(v))
		}
	}
	if len(stubs)%2 != 0 {
		return nil, fmt.Errorf("%w: odd stub count %d", ErrStubMatching, len(stubs))
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	key := func(u, v graph.VID) uint64 {
		if u > v {
			u, v = v, u
		}
		return pack(u, v)
	}
	m := len(stubs) / 2
	edges := make([]graph.Edge, m)
	var present edgeSet
	present.reset(m)
	isPending := make([]bool, m)
	var pending []int
	for i := 0; i < m; i++ {
		e := graph.Edge{From: stubs[2*i], To: stubs[2*i+1]}
		edges[i] = e
		if e.From == e.To || present.add(key(e.From, e.To)) {
			isPending[i] = true
			pending = append(pending, i)
		}
	}
	maxAttempts := 200 * (len(pending) + 1)
	for attempt := 0; len(pending) > 0 && attempt < maxAttempts; attempt++ {
		idx := pending[len(pending)-1]
		j := rng.Intn(len(edges))
		if j == idx || isPending[j] {
			continue // partner must be an accepted edge
		}
		a, b := edges[idx], edges[j]
		// Undirected double swap: {a.From, b.To}, {b.From, a.To}.
		na := graph.Edge{From: a.From, To: b.To}
		nb := graph.Edge{From: b.From, To: a.To}
		if na.From == na.To || nb.From == nb.To {
			continue
		}
		ka, kb2 := key(na.From, na.To), key(nb.From, nb.To)
		if ka == kb2 {
			continue
		}
		if present.has(ka) || present.has(kb2) {
			continue
		}
		present.del(key(b.From, b.To))
		present.add(ka)
		present.add(kb2)
		edges[idx], edges[j] = na, nb
		isPending[idx] = false
		pending = pending[:len(pending)-1]
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("%w: %d undirected collisions unresolved", ErrStubMatching, len(pending))
	}
	return buildFromEdges(g, edges)
}

// buildFromEdges materializes edges (dense indices of src) into a new
// graph carrying src's external IDs.
func buildFromEdges(src *graph.Graph, edges []graph.Edge) (*graph.Graph, error) {
	from, to := make([]graph.VID, len(edges)), make([]graph.VID, len(edges))
	for i, e := range edges {
		from[i], to[i] = e.From, e.To
	}
	return graph.FromArcs(src.Directed(), src.ExternalIDs(), from, to)
}
