package ncp

import (
	"math"
	"sync"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/obs"
)

// memoKey is the part of a sweep's resolved options that a seed's
// conductance vector depends on besides the graph and the vertex. The
// floats are compared by their bits, so a key matches only the exact
// parameters its vectors were computed under.
type memoKey struct {
	alpha, eps uint64
	maxSize    int
}

func keyOf(opts Options) memoKey {
	return memoKey{alpha: math.Float64bits(opts.Alpha), eps: math.Float64bits(opts.Eps), maxSize: opts.MaxSize}
}

// memoCounters are the handler's memo metrics, shared by the memos of
// every graph it serves. Nil counters (a nil recorder) are no-ops.
type memoCounters struct {
	hits, misses, flushes *obs.Counter
}

// seedMemo is one graph's derived sweep state for the /v1/ncp handler:
// the degree ranking the stratified seeds are drawn from, and each seed
// vertex's per-prefix conductances (sweepSeed's result) under one key.
// A seed's vector depends only on (graph, vertex, key), so a request
// that draws a vertex an earlier request swept reuses its vector, and
// the merged curve is bit for bit the one Sweep computes.
//
// The memo holds at most limit floats, counting memoEntryCost extra per
// entry for its slice header. Once an insert would pass the limit, the
// memo stores no more vectors and keeps those it holds; a request under
// a different key drops every entry. The stored vectors are shared
// read-only by every request that hits them.
type seedMemo struct {
	mu     sync.Mutex
	ranked []graph.VID // nil until the first request
	key    memoKey
	conds  map[graph.VID][]float64
	held   int // floats stored plus memoEntryCost per entry
	limit  int
	memoCounters
}

// memoEntryCost is what one entry's slice header counts against the
// limit, in float64-sized words.
const memoEntryCost = 3

// newSeedMemo returns an empty memo for g, bounded to one float64 per
// arc of g's adjacency.
func newSeedMemo(g *graph.Graph, c memoCounters) *seedMemo {
	limit := int(g.NumEdges())
	if !g.Directed() {
		limit *= 2
	}
	return &seedMemo{conds: make(map[graph.VID][]float64), limit: limit, memoCounters: c}
}

// ranking returns g's degree ranking, computing it on first use. A nil
// memo ranks g afresh.
func (m *seedMemo) ranking(g *graph.Graph) []graph.VID {
	if m == nil {
		return rankByDegree(g)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ranked == nil {
		m.ranked = rankByDegree(g)
	}
	return m.ranked
}

// lookup fills results[i] with the stored vector of seeds[i] under key
// and returns the indices, ascending, of the seeds it does not hold. A
// key other than the memo's drops every entry (a flush, counted when
// there was an entry to drop) and takes its place. A nil memo holds
// nothing.
func (m *seedMemo) lookup(key memoKey, seeds []graph.VID, results [][]float64) []int {
	miss := make([]int, 0, len(seeds))
	if m == nil {
		for i := range seeds {
			miss = append(miss, i)
		}
		return miss
	}
	m.mu.Lock()
	if key != m.key {
		if len(m.conds) > 0 {
			clear(m.conds)
			m.held = 0
			m.flushes.Inc()
		}
		m.key = key
	}
	for i, v := range seeds {
		if c, ok := m.conds[v]; ok {
			results[i] = c
		} else {
			miss = append(miss, i)
		}
	}
	m.mu.Unlock()
	m.hits.Add(int64(len(seeds) - len(miss)))
	m.misses.Add(int64(len(miss)))
	return miss
}

// insert stores the vectors the indices in miss computed, up to the
// limit: a vector that would pass it is not stored. If another request
// moved the memo to a different key meanwhile, it stores nothing, and
// so does a nil memo.
func (m *seedMemo) insert(key memoKey, seeds []graph.VID, miss []int, results [][]float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if key != m.key {
		return
	}
	for _, i := range miss {
		v, c := seeds[i], results[i]
		if _, ok := m.conds[v]; ok {
			continue
		}
		cost := len(c) + memoEntryCost
		if m.held+cost > m.limit {
			continue
		}
		m.conds[v] = c
		m.held += cost
	}
}

// memoTable holds one seedMemo per graph a handler has swept. Its
// lifetime is the handler's, and through it the suite's: nothing here is
// process-global.
type memoTable struct {
	mu       sync.Mutex
	byGraph  map[*graph.Graph]*seedMemo
	counters memoCounters
}

func newMemoTable(rec *obs.Recorder) *memoTable {
	return &memoTable{
		byGraph: make(map[*graph.Graph]*seedMemo),
		counters: memoCounters{
			hits:    rec.Counter("ncp.memo.hits"),
			misses:  rec.Counter("ncp.memo.misses"),
			flushes: rec.Counter("ncp.memo.flushes"),
		},
	}
}

// of returns g's memo, creating it on first use.
func (t *memoTable) of(g *graph.Graph) *seedMemo {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.byGraph[g]
	if m == nil {
		m = newSeedMemo(g, t.counters)
		t.byGraph[g] = m
	}
	return m
}
