package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"gpluscircles/internal/obs"
	"gpluscircles/internal/par"
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
	// DenseVertices declares the vertex universe up front and is
	// required: external IDs are exactly [0, DenseVertices) and every
	// vertex exists. NewStreamBuilder rejects 0 with ErrEmptyGraph.
	DenseVertices int64
	// Workers bounds the parallelism of the finishing phase (per-row
	// sort/dedup). 0 selects GOMAXPROCS.
	Workers int
}

// StreamBuilder constructs an immutable Graph from two passes over an
// edge stream without ever materializing the edge list: pass 1 counts
// per-vertex degrees, pass 2 writes endpoints straight into the final
// CSR adjacency. Peak memory is O(n + m·sizeof(VID)) — the offsets,
// cursors, and the adjacency the Graph keeps anyway. Duplicates and
// self-loops are dropped. Concurrent producers fill rows in no fixed
// order, so Finish sorts every row; Builder, which holds its edges,
// fills rows by counting sort instead.
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
// Concurrent producers may call AddEdge directly. Rewind and Finish must
// not be called concurrently with AddEdge.
type StreamBuilder struct {
	directed bool
	workers  int

	pass int32 // 1 = counting, 2 = filling

	n      int64   // vertex count
	outCnt []int64 // pass-1 degree counts, indexed by vertex
	inCnt  []int64 // directed only

	outOff, inOff   []int64
	outNext, inNext []int64 // pass-2 fill cursors, advanced atomically
	outAdj, inAdj   []VID

	err atomic.Pointer[error]

	mPass1, mPass2 *obs.Counter
	gPeak          *obs.Gauge
}

// NewStreamBuilder returns a StreamBuilder for a directed or undirected
// graph over opts.DenseVertices vertices. A zero universe returns
// ErrEmptyGraph.
func NewStreamBuilder(directed bool, opts StreamOptions) (*StreamBuilder, error) {
	if opts.DenseVertices == 0 {
		return nil, ErrEmptyGraph
	}
	if opts.DenseVertices < 0 || opts.DenseVertices > math.MaxInt32 {
		return nil, fmt.Errorf("%w: DenseVertices %d outside [1, %d]",
			ErrStreamRange, opts.DenseVertices, math.MaxInt32)
	}
	sb := &StreamBuilder{
		directed: directed,
		workers:  opts.Workers,
		pass:     1,
		n:        opts.DenseVertices,
		outCnt:   make([]int64, opts.DenseVertices),
	}
	if directed {
		sb.inCnt = make([]int64, sb.n)
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

// AddEdge streams the arc (u,v) (directed) or edge {u,v} (undirected).
// Self-loops are ignored; duplicates are deduplicated at Finish. AddEdge
// is safe for concurrent use. Errors (range violations, pass-2
// mismatches) are latched and reported by Finish.
func (sb *StreamBuilder) AddEdge(u, v int64) {
	if u == v {
		return
	}
	if u < 0 || u >= sb.n || v < 0 || v >= sb.n {
		sb.setErr(fmt.Errorf("%w: edge (%d,%d) with %d dense vertices", ErrStreamRange, u, v, sb.n))
		return
	}
	if sb.pass == 1 {
		atomic.AddInt64(&sb.outCnt[u], 1)
		if sb.directed {
			atomic.AddInt64(&sb.inCnt[v], 1)
		} else {
			atomic.AddInt64(&sb.outCnt[v], 1)
		}
		sb.mPass1.Inc()
		return
	}
	sb.place(VID(u), VID(v))
	sb.mPass2.Inc()
}

// place writes one edge into the CSR rows reserved by pass 1. Cursors
// advance atomically so concurrent producers fill disjoint slots; rows
// are sorted at Finish, so placement order never reaches the Graph.
func (sb *StreamBuilder) place(iu, iv VID) {
	pos := atomic.AddInt64(&sb.outNext[iu], 1) - 1
	if pos >= sb.outOff[iu+1] {
		sb.setErr(fmt.Errorf("%w: vertex %d receives more edges than counted", ErrStreamMismatch, iu))
		return
	}
	sb.outAdj[pos] = iv
	if sb.directed {
		pos = atomic.AddInt64(&sb.inNext[iv], 1) - 1
		if pos >= sb.inOff[iv+1] {
			sb.setErr(fmt.Errorf("%w: vertex %d receives more in-edges than counted", ErrStreamMismatch, iv))
			return
		}
		sb.inAdj[pos] = iu
		return
	}
	pos = atomic.AddInt64(&sb.outNext[iv], 1) - 1
	if pos >= sb.outOff[iv+1] {
		sb.setErr(fmt.Errorf("%w: vertex %d receives more edges than counted", ErrStreamMismatch, iv))
		return
	}
	sb.outAdj[pos] = iu
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
// cursors and adjacency storage.
func (sb *StreamBuilder) finalizeCounts() {
	n := int(sb.n)
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
		int64(4*(len(sb.outAdj)+len(sb.inAdj)))
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
// without edges may Finish straight from pass 1.
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
	for v := 0; v < n; v++ {
		if sb.outNext[v] != sb.outOff[v+1] {
			return nil, fmt.Errorf("%w: vertex %d received %d of %d counted edges",
				ErrStreamMismatch, v, sb.outNext[v]-sb.outOff[v], sb.outOff[v+1]-sb.outOff[v])
		}
		if sb.directed && sb.inNext[v] != sb.inOff[v+1] {
			return nil, fmt.Errorf("%w: vertex %d received %d of %d counted in-edges",
				ErrStreamMismatch, v, sb.inNext[v]-sb.inOff[v], sb.inOff[v+1]-sb.inOff[v])
		}
	}

	sb.outOff, sb.outAdj = sortDedupCompact(sb.outOff, sb.outAdj, sb.workers)
	if sb.directed {
		sb.inOff, sb.inAdj = sortDedupCompact(sb.inOff, sb.inAdj, sb.workers)
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

	g := &Graph{
		directed: sb.directed,
		ids:      identityIDs(n),
		outOff:   sb.outOff,
		outAdj:   sb.outAdj,
		m:        m,
	}
	if sb.directed {
		g.inOff, g.inAdj = sb.inOff, sb.inAdj
	} else {
		g.inOff, g.inAdj = g.outOff, g.outAdj
	}
	if err := g.fillDegrees(); err != nil {
		return nil, err
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

// sortDedupCompact sorts every CSR row in parallel, then drops
// duplicates and compacts the rows with dedupRows, whose in-place moves
// must run left to right in one goroutine because a later row's
// destination can overlap an earlier row's still-unread source. It is a
// straight memory pass, so serializing it is cheap next to the sorts.
func sortDedupCompact(off []int64, adj []VID, workers int) ([]int64, []VID) {
	const rowChunk = 1024 // rows per fan-out unit
	n := len(off) - 1
	par.For((n+rowChunk-1)/rowChunk, workers, func(_, c int) {
		for v := c * rowChunk; v < min(n, (c+1)*rowChunk); v++ {
			slices.Sort(adj[off[v]:off[v+1]])
		}
	})
	return dedupRows(off, adj)
}

// dedupRows drops adjacent duplicates from every ascending row of
// (off, adj) and compacts the rows left, rewriting off in place. A row's
// writes never pass its own unread entries, so one left-to-right pass
// suffices.
func dedupRows(off []int64, adj []VID) ([]int64, []VID) {
	n := len(off) - 1
	var w int64
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		off[v] = w
		for i := lo; i < hi; i++ {
			if i == lo || adj[i] != adj[w-1] {
				adj[w] = adj[i]
				w++
			}
		}
	}
	off[n] = w
	return off, adj[:w]
}
