package graph

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gpluscircles/internal/obs"
)

// Stream-builder errors. ErrStreamPass flags API misuse (wrong phase),
// ErrStreamMismatch a pass-2 edge stream that does not replay the pass-1
// multiset, and ErrStreamRange a vertex outside the declared dense range.
var (
	ErrStreamPass     = errors.New("graph: stream builder phase error")
	ErrStreamMismatch = errors.New("graph: pass-2 edge stream differs from pass 1")
	ErrStreamRange    = errors.New("graph: vertex outside declared dense range")
)

// StreamOptions configures a StreamBuilder.
type StreamOptions struct {
	// DenseVertices > 0 declares the vertex universe up front: external
	// IDs are exactly [0, DenseVertices), every vertex exists (AddVertex
	// is unnecessary), no interning map is built, and AddEdge is safe for
	// concurrent use from multiple goroutines. 0 selects the sparse mode:
	// arbitrary int64 IDs interned in ascending order, single-goroutine
	// streaming only. Builder is a façade over the sparse mode.
	DenseVertices int64
	// Workers bounds the parallelism of the finishing phase (per-row
	// sort/dedup). 0 selects GOMAXPROCS.
	Workers int
}

// StreamBuilder constructs an immutable Graph from two passes over an
// edge stream without ever materializing the edge list: pass 1 counts
// per-vertex degrees, pass 2 writes endpoints straight into the final
// CSR adjacency. Peak memory is O(n + m·sizeof(VID)) — the offsets,
// cursors, and the adjacency the Graph keeps anyway. It is the package's
// only CSR construction algorithm: duplicates and self-loops are dropped
// and sparse-mode IDs get dense indices in ascending external-ID order.
//
// Protocol (replay): the caller streams the edges, calls Rewind, and
// streams the identical edge multiset again before Finish.
//
//	sb, _ := NewStreamBuilder(directed, StreamOptions{DenseVertices: n})
//	stream(sb.AddEdge)     // pass 1: counting
//	sb.Rewind()
//	stream(sb.AddEdge)     // pass 2: identical multiset, any order
//	g, err := sb.Finish()
//
// In dense mode concurrent producers may call AddEdge directly. Rewind
// and Finish must not be called concurrently with AddEdge.
type StreamBuilder struct {
	directed bool
	dense    bool
	workers  int

	pass int32 // 1 = counting, 2 = filling

	// Sparse-mode interning (nil in dense mode). During pass 1 index maps
	// external ID -> provisional index in first-seen order; Rewind remaps
	// it to final ascending-ID order.
	index map[int64]VID
	ids   []int64

	n      int64   // vertex count (fixed in dense mode, grows in sparse)
	outCnt []int64 // pass-1 degree counts, indexed by (provisional) vertex
	inCnt  []int64 // directed only

	outOff, inOff   []int64
	outNext, inNext []int64 // pass-2 fill cursors, advanced atomically
	outAdj, inAdj   []VID

	err atomic.Pointer[error]

	mPass1, mPass2 *obs.Counter
	gPeak          *obs.Gauge
}

// NewStreamBuilder returns a StreamBuilder for a directed or undirected
// graph. See StreamOptions for the dense and sparse modes.
func NewStreamBuilder(directed bool, opts StreamOptions) (*StreamBuilder, error) {
	if opts.DenseVertices < 0 || opts.DenseVertices > math.MaxInt32 {
		return nil, fmt.Errorf("%w: DenseVertices %d outside [0, %d]",
			ErrStreamRange, opts.DenseVertices, math.MaxInt32)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sb := &StreamBuilder{
		directed: directed,
		workers:  workers,
		pass:     1,
	}
	if opts.DenseVertices > 0 {
		sb.dense = true
		sb.n = opts.DenseVertices
		sb.outCnt = make([]int64, sb.n)
		if directed {
			sb.inCnt = make([]int64, sb.n)
		}
	} else {
		sb.index = make(map[int64]VID)
	}
	return sb, nil
}

// Instrument attaches observability handles: edge counters for each pass
// plus a gauge for the builder's peak working-set estimate. All handles
// may be nil (no-ops); call before streaming.
func (sb *StreamBuilder) Instrument(pass1, pass2 *obs.Counter, peakBytes *obs.Gauge) {
	sb.mPass1, sb.mPass2 = pass1, pass2
	sb.gPeak = peakBytes
}

// setErr records the first error; later ones are dropped.
func (sb *StreamBuilder) setErr(err error) {
	sb.err.CompareAndSwap(nil, &err)
}

func (sb *StreamBuilder) takeErr() error {
	if p := sb.err.Load(); p != nil {
		return *p
	}
	return nil
}

// AddVertex registers an isolated vertex. In dense mode every vertex in
// [0, DenseVertices) already exists, so this only validates the range.
// Sparse mode interns the ID during pass 1.
func (sb *StreamBuilder) AddVertex(id int64) {
	if sb.dense {
		if id < 0 || id >= sb.n {
			sb.setErr(fmt.Errorf("%w: vertex %d with %d dense vertices", ErrStreamRange, id, sb.n))
		}
		return
	}
	if sb.pass == 1 {
		sb.intern(id)
		return
	}
	if _, ok := sb.index[id]; !ok {
		sb.setErr(fmt.Errorf("%w: vertex %d appears only in pass 2", ErrStreamMismatch, id))
	}
}

// AddEdge streams the arc (u,v) (directed) or edge {u,v} (undirected).
// Self-loops are ignored; duplicates are deduplicated at Finish. In
// dense mode AddEdge is safe for concurrent use. Errors (range
// violations, pass-2 mismatches) are latched and reported by Finish.
func (sb *StreamBuilder) AddEdge(u, v int64) {
	if u == v {
		return
	}
	if sb.pass == 1 {
		if sb.dense {
			if u < 0 || u >= sb.n || v < 0 || v >= sb.n {
				sb.setErr(fmt.Errorf("%w: edge (%d,%d) with %d dense vertices", ErrStreamRange, u, v, sb.n))
				return
			}
			atomic.AddInt64(&sb.outCnt[u], 1)
			if sb.directed {
				atomic.AddInt64(&sb.inCnt[v], 1)
			} else {
				atomic.AddInt64(&sb.outCnt[v], 1)
			}
		} else {
			pu, pv := sb.intern(u), sb.intern(v)
			sb.outCnt[pu]++
			if sb.directed {
				sb.inCnt[pv]++
			} else {
				sb.outCnt[pv]++
			}
		}
		sb.mPass1.Inc()
		return
	}

	var iu, iv VID
	if sb.dense {
		if u < 0 || u >= sb.n || v < 0 || v >= sb.n {
			sb.setErr(fmt.Errorf("%w: edge (%d,%d) with %d dense vertices", ErrStreamRange, u, v, sb.n))
			return
		}
		iu, iv = VID(u), VID(v)
	} else {
		var ok bool
		if iu, ok = sb.index[u]; !ok {
			sb.setErr(fmt.Errorf("%w: vertex %d appears only in pass 2", ErrStreamMismatch, u))
			return
		}
		if iv, ok = sb.index[v]; !ok {
			sb.setErr(fmt.Errorf("%w: vertex %d appears only in pass 2", ErrStreamMismatch, v))
			return
		}
	}
	sb.place(iu, iv)
	sb.mPass2.Inc()
}

// place writes one edge into the CSR rows reserved by pass 1. Cursors
// advance atomically so concurrent producers fill disjoint slots; rows
// are sorted at Finish, so placement order never reaches the Graph.
func (sb *StreamBuilder) place(iu, iv VID) {
	pos := atomic.AddInt64(&sb.outNext[iu], 1) - 1
	if pos >= sb.outOff[iu+1] {
		sb.setErr(fmt.Errorf("%w: vertex %d receives more edges than counted", ErrStreamMismatch, sb.externalOf(iu)))
		return
	}
	sb.outAdj[pos] = iv
	if sb.directed {
		pos = atomic.AddInt64(&sb.inNext[iv], 1) - 1
		if pos >= sb.inOff[iv+1] {
			sb.setErr(fmt.Errorf("%w: vertex %d receives more in-edges than counted", ErrStreamMismatch, sb.externalOf(iv)))
			return
		}
		sb.inAdj[pos] = iu
		return
	}
	pos = atomic.AddInt64(&sb.outNext[iv], 1) - 1
	if pos >= sb.outOff[iv+1] {
		sb.setErr(fmt.Errorf("%w: vertex %d receives more edges than counted", ErrStreamMismatch, sb.externalOf(iv)))
		return
	}
	sb.outAdj[pos] = iu
}

// externalOf maps a dense index back to its external ID for error text.
func (sb *StreamBuilder) externalOf(v VID) int64 {
	if sb.dense || int(v) >= len(sb.ids) {
		return int64(v)
	}
	return sb.ids[v]
}

// intern resolves an external ID to its provisional index (pass 1 only).
func (sb *StreamBuilder) intern(id int64) VID {
	if p, ok := sb.index[id]; ok {
		return p
	}
	p := VID(len(sb.ids))
	sb.index[id] = p
	sb.ids = append(sb.ids, id)
	sb.outCnt = append(sb.outCnt, 0)
	if sb.directed {
		sb.inCnt = append(sb.inCnt, 0)
	}
	sb.n = int64(len(sb.ids))
	return p
}

// Rewind ends the counting pass and prepares the fill pass: the caller
// must then stream the identical edge multiset (any order) and Finish.
func (sb *StreamBuilder) Rewind() error {
	if sb.pass != 1 {
		return fmt.Errorf("%w: Rewind outside pass 1", ErrStreamPass)
	}
	if err := sb.takeErr(); err != nil {
		return err
	}
	sb.finalizeCounts()
	sb.pass = 2
	return nil
}

// finalizeCounts turns the pass-1 degree counts into CSR offsets, fill
// cursors and adjacency storage. Sparse mode first re-ranks vertices
// into ascending external-ID order.
func (sb *StreamBuilder) finalizeCounts() {
	n := int(sb.n)
	if !sb.dense && n > 0 {
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(i, j int) bool { return sb.ids[order[i]] < sb.ids[order[j]] })
		sortedIDs := make([]int64, n)
		outCnt := make([]int64, n)
		var inCnt []int64
		if sb.directed {
			inCnt = make([]int64, n)
		}
		for rank, prov := range order {
			sortedIDs[rank] = sb.ids[prov]
			outCnt[rank] = sb.outCnt[prov]
			if sb.directed {
				inCnt[rank] = sb.inCnt[prov]
			}
		}
		sb.ids, sb.outCnt, sb.inCnt = sortedIDs, outCnt, inCnt
		for rank, id := range sortedIDs {
			sb.index[id] = VID(rank)
		}
	}

	sb.outOff = prefixSum(sb.outCnt)
	sb.outNext = startCursors(sb.outOff)
	sb.outAdj = make([]VID, sb.outOff[n])
	sb.outCnt = nil
	if sb.directed {
		sb.inOff = prefixSum(sb.inCnt)
		sb.inNext = startCursors(sb.inOff)
		sb.inAdj = make([]VID, sb.inOff[n])
		sb.inCnt = nil
	}

	peak := int64(8*(len(sb.outOff)+len(sb.outNext)+len(sb.inOff)+len(sb.inNext))) +
		int64(4*(len(sb.outAdj)+len(sb.inAdj))) + int64(8*len(sb.ids))
	sb.gPeak.Set(peak)
}

// prefixSum turns per-vertex counts into n+1 CSR offsets.
func prefixSum(counts []int64) []int64 {
	off := make([]int64, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return off
}

// startCursors copies each row's start offset as its fill cursor.
func startCursors(off []int64) []int64 {
	next := make([]int64, len(off)-1)
	copy(next, off[:len(off)-1])
	return next
}

// Finish completes the build: it sorts and deduplicates every CSR row in
// parallel, compacts the adjacency, and assembles the Graph. A build
// without edges may Finish straight from pass 1. An empty vertex set
// returns ErrEmptyGraph.
func (sb *StreamBuilder) Finish() (*Graph, error) {
	if sb.pass == 1 {
		sb.finalizeCounts()
		sb.pass = 2
		if sb.totalCounted() != 0 {
			return nil, fmt.Errorf("%w: Finish before the pass-2 replay (call Rewind and re-stream)", ErrStreamPass)
		}
	}
	if err := sb.takeErr(); err != nil {
		return nil, err
	}

	n := int(sb.n)
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	for v := 0; v < n; v++ {
		if sb.outNext[v] != sb.outOff[v+1] {
			return nil, fmt.Errorf("%w: vertex %d received %d of %d counted edges",
				ErrStreamMismatch, sb.externalOf(VID(v)), sb.outNext[v]-sb.outOff[v], sb.outOff[v+1]-sb.outOff[v])
		}
		if sb.directed && sb.inNext[v] != sb.inOff[v+1] {
			return nil, fmt.Errorf("%w: vertex %d received %d of %d counted in-edges",
				ErrStreamMismatch, sb.externalOf(VID(v)), sb.inNext[v]-sb.inOff[v], sb.inOff[v+1]-sb.inOff[v])
		}
	}

	sb.outOff, sb.outAdj = sortDedupCompact(sb.outOff, sb.outAdj, sb.outNext, sb.workers)
	if sb.directed {
		sb.inOff, sb.inAdj = sortDedupCompact(sb.inOff, sb.inAdj, sb.inNext, sb.workers)
	}

	var m int64
	if sb.directed {
		m = int64(len(sb.outAdj))
		if m != int64(len(sb.inAdj)) {
			return nil, fmt.Errorf("%w: out/in arc counts diverge after dedup (%d vs %d)",
				ErrStreamMismatch, m, len(sb.inAdj))
		}
	} else {
		m = int64(len(sb.outAdj)) / 2
	}

	ids := sb.ids
	if sb.dense {
		ids = make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
	}
	g := &Graph{
		directed: sb.directed,
		ids:      ids,
		index:    sb.index, // nil in dense mode: Lookup falls back to search
		outOff:   sb.outOff,
		outAdj:   sb.outAdj,
		m:        m,
	}
	if sb.directed {
		g.inOff, g.inAdj = sb.inOff, sb.inAdj
	} else {
		g.inOff, g.inAdj = g.outOff, g.outAdj
	}
	return g, nil
}

// totalCounted returns the pass-1 edge-slot total (valid after
// finalizeCounts).
func (sb *StreamBuilder) totalCounted() int64 {
	if len(sb.outOff) == 0 {
		return 0
	}
	return sb.outOff[len(sb.outOff)-1]
}

// sortDedupCompact sorts every CSR row, removes duplicate entries, and
// compacts the adjacency left so rows stay contiguous. rowLen is reused
// as scratch for the deduplicated row lengths. Sorting and deduping are
// embarrassingly parallel; the in-place compaction must run left to
// right in one goroutine because a later row's destination can overlap
// an earlier row's still-unread source (copy's memmove semantics make a
// row's overlap with itself safe). It is a straight memory move, so
// serializing it is cheap next to the sorts.
func sortDedupCompact(off []int64, adj []VID, rowLen []int64, workers int) ([]int64, []VID) {
	n := len(off) - 1
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	parallelRows(n, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := adj[off[v]:off[v+1]]
			slices.Sort(row)
			rowLen[v] = int64(dedupRow(row))
		}
	})

	newOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		newOff[v+1] = newOff[v] + rowLen[v]
	}
	for v := 0; v < n; v++ {
		if newOff[v] != off[v] {
			copy(adj[newOff[v]:newOff[v+1]], adj[off[v]:off[v]+rowLen[v]])
		}
	}
	return newOff, adj[:newOff[n]]
}

// dedupRow removes adjacent duplicates from a sorted row in place and
// returns the deduplicated length.
func dedupRow(row []VID) int {
	if len(row) == 0 {
		return 0
	}
	w := 1
	for i := 1; i < len(row); i++ {
		if row[i] != row[w-1] {
			row[w] = row[i]
			w++
		}
	}
	return w
}

// parallelRows fans fn out over contiguous row ranges.
func parallelRows(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n < 2 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
