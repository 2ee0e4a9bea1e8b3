// Package graphalgo implements the graph algorithms the evaluation
// pipeline needs: breadth-first search, connected components, shortest-path
// statistics (diameter, average shortest path), triangle counting and
// clustering coefficients. All algorithms are iterative (no recursion) so
// they scale to the multi-million-edge graphs of the paper's data sets.
package graphalgo

import (
	"math"
	"sync"
	"sync/atomic"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/obs"
)

// bfsCounters bundles the package's traversal metrics so the hot path
// loads one pointer to find both handles.
type bfsCounters struct {
	runs   *obs.Counter
	visits *obs.Counter
}

// bfsMetrics holds the active counters; nil (the default) disables
// instrumentation with a single pointer load per BFS run.
var bfsMetrics atomic.Pointer[bfsCounters]

// SetRecorder wires the package's BFS metrics ("graphalgo.bfs.runs",
// "graphalgo.bfs.visits") to rec; a nil rec detaches them. Safe to call
// concurrently with traversals — counts move to the new recorder from
// the next BFS run on.
func SetRecorder(rec *obs.Recorder) {
	if rec == nil {
		bfsMetrics.Store(nil)
		return
	}
	bfsMetrics.Store(&bfsCounters{
		runs:   rec.Counter("graphalgo.bfs.runs"),
		visits: rec.Counter("graphalgo.bfs.visits"),
	})
}

// Direction selects which adjacency BFS traverses.
type Direction int

const (
	// Out follows arcs forward (the only choice for undirected graphs,
	// where adjacency is symmetric).
	Out Direction = iota + 1
	// In follows arcs backward.
	In
	// Both treats every arc as bidirectional, i.e. traverses the
	// underlying undirected structure. This matches the paper's distance
	// metrics, which are computed on connectivity rather than direction.
	Both
)

// bfsState is a reusable BFS workspace to avoid reallocation across the
// many traversals done by distance sampling.
type bfsState struct {
	dist  []int32
	queue []graph.VID
	epoch []int32 // visited marker, compared against cur to skip clearing
	cur   int32
}

// bfsPool recycles BFS workspaces across calls, so the distance samplers
// stop re-allocating frontier/dist arrays per invocation. States are
// sized to the largest graph they have served and re-sliced downward; the
// epoch counter makes reuse safe without clearing.
var bfsPool = sync.Pool{New: func() any { return new(bfsState) }}

// acquireBFSState returns a pooled workspace resized for n vertices.
// Release it with releaseBFSState when the traversals are done.
func acquireBFSState(n int) *bfsState {
	st := bfsPool.Get().(*bfsState)
	st.resize(n)
	return st
}

func releaseBFSState(st *bfsState) { bfsPool.Put(st) }

// resize adapts a (possibly recycled) state to an n-vertex graph. When
// the backing arrays are large enough they are re-sliced and the epoch
// counter keeps running, so no clearing is needed: stale epoch entries
// are always less than the next cur. The counter is reset — with a full
// epoch wipe — before it can overflow.
func (st *bfsState) resize(n int) {
	if cap(st.dist) < n || cap(st.epoch) < n {
		st.dist = make([]int32, n)
		st.epoch = make([]int32, n)
		st.queue = make([]graph.VID, 0, n)
		st.cur = 0
		return
	}
	st.dist = st.dist[:n]
	st.epoch = st.epoch[:n]
	st.queue = st.queue[:0]
	if st.cur == math.MaxInt32 {
		full := st.epoch[:cap(st.epoch)]
		for i := range full {
			full[i] = 0
		}
		st.cur = 0
	}
}

// run performs BFS from src and returns the visit count, the maximum
// distance reached (eccentricity within the component), and the sum of
// distances to all reached vertices. st.dist holds per-vertex distances
// for vertices whose epoch equals st.cur.
func (st *bfsState) run(g *graph.Graph, src graph.VID, dir Direction) (reached int, ecc int32, distSum int64) {
	st.cur++
	st.queue = st.queue[:0]
	st.queue = append(st.queue, src)
	st.epoch[src] = st.cur
	st.dist[src] = 0
	reached = 1

	for head := 0; head < len(st.queue); head++ {
		u := st.queue[head]
		du := st.dist[u]
		if du > ecc {
			ecc = du
		}
		distSum += int64(du)

		visit := func(v graph.VID) {
			if st.epoch[v] == st.cur {
				return
			}
			st.epoch[v] = st.cur
			st.dist[v] = du + 1
			st.queue = append(st.queue, v)
			reached++
		}
		switch dir {
		case Out:
			for _, v := range g.OutNeighbors(u) {
				visit(v)
			}
		case In:
			for _, v := range g.InNeighbors(u) {
				visit(v)
			}
		case Both:
			for _, v := range g.OutNeighbors(u) {
				visit(v)
			}
			if g.Directed() {
				for _, v := range g.InNeighbors(u) {
					visit(v)
				}
			}
		}
	}
	if m := bfsMetrics.Load(); m != nil {
		m.runs.Inc()
		m.visits.Add(int64(reached))
	}
	return reached, ecc, distSum
}

// BFSDistances returns the BFS distance from src to every vertex, with -1
// for unreachable vertices.
func BFSDistances(g *graph.Graph, src graph.VID, dir Direction) []int32 {
	st := acquireBFSState(g.NumVertices())
	defer releaseBFSState(st)
	st.run(g, src, dir)
	out := make([]int32, g.NumVertices())
	for v := range out {
		if st.epoch[v] == st.cur {
			out[v] = st.dist[v]
		} else {
			out[v] = -1
		}
	}
	return out
}
