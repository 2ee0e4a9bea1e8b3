package graphalgo

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gpluscircles/internal/graph"
)

// This file implements the triangle kernel: a degree-ordered oriented-DAG
// CSR representation of a graph's undirected projection, cached per
// base graph and pooled for overlays, with merge-based sorted-adjacency
// intersection. Every clustering-family algorithm in the package
// (TriangleCount, LocalClustering, GlobalClustering) and the cohesion
// scoring function are built on it.
//
// Representation. Vertices are ranked by (projection degree asc, vertex id
// asc); each undirected edge {u,v} is stored exactly once, in the row of
// the lower-ranked endpoint, as the higher endpoint's rank. The resulting
// DAG rows are short (O(sqrt m) on social graphs) and sorted ascending, so
// triangles u<a<w (by rank) are counted by intersecting row(u) suffixes
// with row(a) — a pure sequential-scan workload whose per-edge cost is
// bounded by memory bandwidth, not branch misprediction.
//
// Sharing. The rank permutation depends only on the parent's degree
// sequence, which overlays preserve, so one TriangleKernel serves a parent
// graph and all its overlays. The parent's own DAG is built once and
// cached; overlay DAGs are rebuilt per fill from pooled buffers (the same
// arena discipline as graph.OverlayArena), so steady-state overlay
// counting allocates nothing.

// triDAG is one oriented-DAG CSR: rank-space offsets and adjacency plus
// the per-vertex (id-space) undirected-projection degrees observed during
// the build. The cur and mergeBuf fields are build scratch.
type triDAG struct {
	off  []int64 // len n+1, row r spans adj[off[r]:off[r+1]]
	adj  []int32 // higher-endpoint ranks, each row sorted ascending
	udeg []int32 // undirected projection degree, indexed by vertex id
	cur  []int64 // per-row write cursors during the placement pass
	buf  []graph.VID
}

// row returns DAG row r.
func (d *triDAG) row(r int32) []int32 { return d.adj[d.off[r]:d.off[r+1]] }

// TriangleKernel holds the degree-rank permutation of one base graph and
// the cached/pooled oriented DAGs built over it. Obtain kernels with
// TriangleKernelOf; an overlay's graph resolves to its parent's kernel.
//
// A kernel is safe for concurrent use: the permutation is immutable after
// construction, the source DAG is built under a sync.Once, and overlay
// DAGs are drawn from a sync.Pool per call.
type TriangleKernel struct {
	src   *graph.Graph
	n     int
	order []graph.VID // rank -> vertex id
	rank  []int32     // vertex id -> rank

	srcOnce sync.Once
	srcDAG  atomic.Pointer[triDAG]

	dagPool sync.Pool
}

// triKernels caches one kernel per base graph. Base graphs are few and
// long-lived (suite-memoized data sets), so the cache is never
// evicted; a kernel plus its cached DAG costs O(n + m) alongside a graph
// that already costs O(n + 2m).
var triKernels sync.Map // *graph.Graph -> *TriangleKernel

// TriangleKernelOf returns the (cached) triangle kernel of g's base graph,
// creating it on first use, so every overlay of a parent shares the
// parent's kernel. The kernel's source DAG is built lazily on the first
// count, so merely resolving a kernel is cheap.
func TriangleKernelOf(g *graph.Graph) *TriangleKernel {
	g = g.Base()
	if v, ok := triKernels.Load(g); ok {
		return v.(*TriangleKernel)
	}
	k := newTriangleKernel(g)
	if prev, loaded := triKernels.LoadOrStore(g, k); loaded {
		return prev.(*TriangleKernel)
	}
	return k
}

// newTriangleKernel computes the degree-rank permutation of src. Ties
// break on vertex id so the orientation is deterministic.
func newTriangleKernel(src *graph.Graph) *TriangleKernel {
	n := src.NumVertices()
	k := &TriangleKernel{src: src, n: n}
	k.order = make([]graph.VID, n)
	k.rank = make([]int32, n)
	for i := range k.order {
		k.order[i] = graph.VID(i)
	}
	sort.Slice(k.order, func(i, j int) bool {
		di, dj := src.Degree(k.order[i]), src.Degree(k.order[j])
		if di != dj {
			return di < dj
		}
		return k.order[i] < k.order[j]
	})
	for r, v := range k.order {
		k.rank[v] = int32(r)
	}
	k.dagPool.New = func() any { return new(triDAG) }
	return k
}

// dagFor returns the oriented DAG of g plus a release callback (nil when
// the DAG is the kernel's cached source DAG). Graphs other than the
// kernel's own source (overlays) draw pooled buffers and rebuild; callers
// must invoke release once done so the buffers return to the pool.
func (k *TriangleKernel) dagFor(g *graph.Graph) (d *triDAG, release func()) {
	if g == k.src {
		// Atomic fast path: the sync.Once closure would otherwise be
		// heap-allocated on every call, costing the steady state 1 alloc.
		if dag := k.srcDAG.Load(); dag != nil {
			return dag, nil
		}
		k.srcOnce.Do(func() {
			dag := new(triDAG)
			k.fill(dag, g)
			k.srcDAG.Store(dag)
		})
		return k.srcDAG.Load(), nil
	}
	return k.pooledDAG(g)
}

// pooledDAG fills a pooled DAG for a non-source graph. Split out of
// dagFor so the release closure's capture of d doesn't box it on dagFor's
// allocation-free cached path.
func (k *TriangleKernel) pooledDAG(g *graph.Graph) (*triDAG, func()) {
	d := k.dagPool.Get().(*triDAG)
	k.fill(d, g)
	return d, func() { k.dagPool.Put(d) }
}

// fill (re)builds d as the oriented DAG of g. Two passes, both iterating
// vertices in rank order: the counting pass sizes every row, and the
// placement pass appends ranks in increasing order — which leaves every
// row sorted ascending with no sort step.
func (k *TriangleKernel) fill(d *triDAG, g *graph.Graph) {
	n := k.n
	d.off = growI64(d.off, n+1)
	d.cur = growI64(d.cur, n)
	d.udeg = growI32(d.udeg, n)
	for i := range d.off[:n+1] {
		d.off[i] = 0
	}
	for rw := 0; rw < n; rw++ {
		w := k.order[rw]
		deg := 0
		for _, u := range undirRow(g, w, &d.buf) {
			if u == w {
				continue
			}
			deg++
			if ru := k.rank[u]; int(ru) < rw {
				d.off[ru+1]++
			}
		}
		d.udeg[w] = int32(deg)
	}
	for r := 0; r < n; r++ {
		d.off[r+1] += d.off[r]
	}
	d.adj = growI32(d.adj, int(d.off[n]))
	copy(d.cur, d.off[:n])
	for rw := 0; rw < n; rw++ {
		w := k.order[rw]
		for _, u := range undirRow(g, w, &d.buf) {
			if u == w {
				continue
			}
			if ru := k.rank[u]; int(ru) < rw {
				d.adj[d.cur[ru]] = int32(rw)
				d.cur[ru]++
			}
		}
	}
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

// countRange counts the triangles whose lowest-ranked corner lies in rows
// [lo, hi): for each forward edge (r, a), the common forward neighbors of
// r beyond a and of a close a triangle each.
func (d *triDAG) countRange(lo, hi int) int64 {
	var t int64
	for r := lo; r < hi; r++ {
		row := d.adj[d.off[r]:d.off[r+1]]
		for i, a := range row {
			rest := row[i+1:]
			if len(rest) == 0 {
				break
			}
			t += intersectCount(rest, d.row(a))
		}
	}
	return t
}

// gallopThreshold selects the galloping intersection when one row is this
// many times longer than the other — skewed hub rows binary-search instead
// of scanning.
const gallopThreshold = 16

// intersectCount returns |a ∩ b| for sorted slices. The common case runs
// the branch-reduced two-pointer merge (the comparisons compile to
// conditional moves, not branches); heavily skewed pairs fall back to
// galloping search over the longer side.
func intersectCount[E ~int32](a, b []E) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b) > gallopThreshold*len(a) {
		return gallopCount(a, b)
	}
	var t int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			t++
		}
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	return t
}

// gallopCount counts |a ∩ b| with exponential probing + binary search in
// b for each element of a (len(a) << len(b)). The probe cursor advances
// monotonically, so the whole pass is O(len(a) · log(len(b)/len(a))).
func gallopCount[E ~int32](a, b []E) int64 {
	var t int64
	j := 0
	for _, x := range a {
		// Exponential probe from the cursor for an upper bound with b >= x.
		hi := j
		step := 1
		for hi < len(b) && b[hi] < x {
			hi += step
			step <<= 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search for the first index in [j, hi) with b >= x.
		for j < hi {
			mid := int(uint(j+hi) >> 1)
			if b[mid] < x {
				j = mid + 1
			} else {
				hi = mid
			}
		}
		if j >= len(b) {
			break
		}
		if b[j] == x {
			t++
			j++
		}
	}
	return t
}

// count runs the counting pass over d, fanning rank ranges out over
// `workers` goroutines (<= 0 selects GOMAXPROCS). Chunks are balanced by
// adjacency volume, each worker accumulates a private int64 partial, and
// partials are summed after the pool drains — integer addition commutes
// exactly, so the result is bit-identical for every worker count.
func (k *TriangleKernel) count(d *triDAG, workers int) int64 {
	n := k.n
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2048 {
		return d.countRange(0, n)
	}
	bounds := chunkBounds(d.off, workers*4)
	results := make([]int64, workers)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			var t int64
			for c := range next {
				t += d.countRange(bounds[c], bounds[c+1])
			}
			results[slot] = t
		}(w)
	}
	for c := 0; c+1 < len(bounds); c++ {
		next <- c
	}
	close(next)
	wg.Wait()
	var total int64
	for _, t := range results {
		total += t
	}
	return total
}

// chunkBounds splits rank space into about `chunks` ranges of roughly
// equal adjacency volume, so hub-heavy regions don't serialize behind one
// worker. The boundaries depend only on the offsets, never on scheduling.
func chunkBounds(off []int64, chunks int) []int {
	n := len(off) - 1
	if chunks < 1 {
		chunks = 1
	}
	per := off[n]/int64(chunks) + 1
	bounds := make([]int, 1, chunks+1)
	var acc int64
	for r := 0; r < n; r++ {
		acc += off[r+1] - off[r]
		if acc >= per && r+1 < n {
			bounds = append(bounds, r+1)
			acc = 0
		}
	}
	return append(bounds, n)
}

// TriangleCount counts the triangles of the undirected projection of g,
// fanning the counting pass out over `workers` goroutines (<= 0 selects
// GOMAXPROCS, 1 forces the serial pass). The result is bit-identical
// across worker counts and across a parent graph and any overlay holding
// the same adjacency. Counting the same built graph repeatedly is
// allocation-free after the first call; overlays reuse pooled DAG
// buffers.
func TriangleCount(g *graph.Graph, workers int) int64 {
	k := TriangleKernelOf(g)
	d, release := k.dagFor(g)
	t := k.count(d, workers)
	if release != nil {
		release()
	}
	return t
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

// growI64 returns s resized to length n, reusing capacity.
func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// growI32 returns s resized to length n, reusing capacity.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
