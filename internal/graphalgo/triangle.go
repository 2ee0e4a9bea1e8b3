package graphalgo

import (
	"slices"
	"sort"
	"sync"

	"gpluscircles/internal/graph"
)

// This file holds the triangle code: the oriented DAG LocalClustering
// sweeps, and the per-set and per-vertex counts that stamp a centre's
// neighbours (SetTriangles, and localCC for SampledClustering).

// triDAG is the oriented DAG of one graph's undirected projection.
// Vertices are ranked by (degree asc, vertex id asc); each undirected
// edge {u,v} is stored exactly once, in the row of the lower-ranked
// endpoint, as the higher endpoint's rank. The rows are short (O(sqrt m)
// on social graphs) and sorted ascending, so the triangles u<a<w (by
// rank) are found by intersecting row(u) suffixes with row(a).
type triDAG struct {
	order []graph.VID // rank -> vertex id
	off   []int64     // len n+1, row r spans adj[off[r]:off[r+1]]
	adj   []int32     // higher-endpoint ranks, each row sorted ascending
	udeg  []int32     // undirected projection degree, indexed by vertex id
}

// row returns DAG row r.
func (d *triDAG) row(r int32) []int32 { return d.adj[d.off[r]:d.off[r+1]] }

// newTriDAG ranks g's vertices by degree, ties broken on vertex id so
// the orientation is deterministic, and builds the DAG in two passes,
// both iterating vertices in rank order: the counting pass sizes every
// row, and the placement pass appends ranks in increasing order, which
// leaves every row sorted ascending with no sort step.
func newTriDAG(g *graph.Graph) *triDAG {
	n := g.NumVertices()
	order := make([]graph.VID, n)
	for i := range order {
		order[i] = graph.VID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	rank := make([]int32, n)
	for r, v := range order {
		rank[v] = int32(r)
	}
	d := &triDAG{order: order, off: make([]int64, n+1), udeg: make([]int32, n)}
	var buf []graph.VID
	for rw := 0; rw < n; rw++ {
		w := order[rw]
		deg := 0
		for _, u := range undirRow(g, w, &buf) {
			if u == w {
				continue
			}
			deg++
			if ru := rank[u]; int(ru) < rw {
				d.off[ru+1]++
			}
		}
		d.udeg[w] = int32(deg)
	}
	for r := 0; r < n; r++ {
		d.off[r+1] += d.off[r]
	}
	d.adj = make([]int32, d.off[n])
	cur := slices.Clone(d.off[:n])
	for rw := 0; rw < n; rw++ {
		w := order[rw]
		for _, u := range undirRow(g, w, &buf) {
			if u == w {
				continue
			}
			if ru := rank[u]; int(ru) < rw {
				d.adj[cur[ru]] = int32(rw)
				cur[ru]++
			}
		}
	}
	return d
}

// undirRow returns the sorted undirected neighborhood of w in g. For
// undirected graphs it is the CSR row itself (no copy); for directed
// graphs the out- and in-rows are merged with duplicates and self-loops
// dropped, into *buf (grown as needed, reused across calls).
func undirRow(g *graph.Graph, w graph.VID, buf *[]graph.VID) []graph.VID {
	if !g.Directed() {
		return g.OutNeighbors(w)
	}
	*buf = mergeNeighbors(g.OutNeighbors(w), g.InNeighbors(w), w, (*buf)[:0])
	return *buf
}

// mergeNeighbors merges two sorted neighbor rows into dst, dropping
// duplicates and the vertex self itself.
func mergeNeighbors(out, in []graph.VID, self graph.VID, dst []graph.VID) []graph.VID {
	i, j := 0, 0
	for i < len(out) && j < len(in) {
		a, b := out[i], in[j]
		var next graph.VID
		switch {
		case a < b:
			next = a
			i++
		case b < a:
			next = b
			j++
		default:
			next = a
			i++
			j++
		}
		if next != self {
			dst = append(dst, next)
		}
	}
	for ; i < len(out); i++ {
		if out[i] != self {
			dst = append(dst, out[i])
		}
	}
	for ; j < len(in); j++ {
		if in[j] != self {
			dst = append(dst, in[j])
		}
	}
	return dst
}

// triScratch holds the per-call state of SetTriangles and the sampled
// clustering path: the centre's merged row on directed graphs, and one
// stamp per vertex marking the current centre's neighbours. Pooled
// globally; buffers grow to the largest graph met and are reused.
type triScratch struct {
	a     []graph.VID
	stamp []uint32
	epoch uint32
}

var triScratchPool = sync.Pool{New: func() any { return new(triScratch) }}

// nextEpoch starts a stamp generation over a graph of n vertices and
// returns it; no vertex carries it until stamped.
func (s *triScratch) nextEpoch(n int) uint32 {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	return s.epoch
}

// stampedAbove counts the distinct c > a in a's undirected neighbourhood,
// OutNeighbors(a) ∪ InNeighbors(a), that carry stamp e. One two-pointer
// walk over the two sorted rows, from their first entries above a,
// counts a vertex on both rows once; on undirected graphs the in-row is
// left empty, since it repeats the out-row.
func stampedAbove(g *graph.Graph, a graph.VID, stamp []uint32, e uint32) int64 {
	out := above(g.OutNeighbors(a), a)
	var in []graph.VID
	if g.Directed() {
		in = above(g.InNeighbors(a), a)
	}
	var t int64
	i, j := 0, 0
	for i < len(out) && j < len(in) {
		x, y := out[i], in[j]
		c := min(x, y)
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
		if stamp[c] == e {
			t++
		}
	}
	for _, c := range out[i:] {
		if stamp[c] == e {
			t++
		}
	}
	for _, c := range in[j:] {
		if stamp[c] == e {
			t++
		}
	}
	return t
}

// above returns the suffix of the sorted, duplicate-free row whose
// entries exceed a.
func above(row []graph.VID, a graph.VID) []graph.VID {
	i, found := slices.BinarySearch(row, a)
	if found {
		i++
	}
	return row[i:]
}

// SetTriangles counts the triangles of the undirected projection of g
// whose three corners all lie in set. It walks the members' adjacency
// rows directly — no DAG build — so scoring one set per overlay sample
// costs O(vol(C)) rather than O(m), and repeated calls allocate nothing.
// For each member u it stamps u's neighbours above u that are members,
// then each stamped a counts the stamped vertices above a on a's row.
// The count is exact and identical across parent/overlay/materialized
// representations of the same adjacency.
func SetTriangles(g *graph.Graph, set *graph.Set) int64 {
	if set.Len() < 3 {
		return 0
	}
	s := triScratchPool.Get().(*triScratch)
	n := g.NumVertices()
	var t int64
	for _, u := range set.Members() {
		rowU := above(undirRow(g, u, &s.a), u)
		e := s.nextEpoch(n)
		for _, c := range rowU {
			if set.Contains(c) {
				s.stamp[c] = e
			}
		}
		for _, a := range rowU {
			if s.stamp[a] == e {
				t += stampedAbove(g, a, s.stamp, e)
			}
		}
	}
	triScratchPool.Put(s)
	return t
}
