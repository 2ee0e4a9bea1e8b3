package graph

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gpluscircles/internal/obs"
)

// binaryBytes serializes a graph for bit-identity comparisons: IDs, CSR
// offsets and adjacency, so graphs compare equal exactly when their
// structure and ID tables do.
func binaryBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// oracleBuild is the naive reference every CSR construction test checks
// against: one adjacency set per external ID, then sorted rows. It shares
// no code with Builder or StreamBuilder.
func oracleBuild(directed bool, vertices []int64, pairs [][2]int64) (*Graph, error) {
	out, in := map[int64]map[int64]bool{}, map[int64]map[int64]bool{}
	touch := func(id int64) {
		if out[id] == nil {
			out[id], in[id] = map[int64]bool{}, map[int64]bool{}
		}
	}
	for _, id := range vertices {
		touch(id)
	}
	for _, p := range pairs {
		if u, v := p[0], p[1]; u != v {
			touch(u)
			touch(v)
			out[u][v], in[v][u] = true, true
			if !directed {
				out[v][u], in[u][v] = true, true
			}
		}
	}
	if len(out) == 0 {
		return nil, ErrEmptyGraph
	}
	g := &Graph{directed: directed}
	index := map[int64]VID{}
	for id := range out {
		g.ids = append(g.ids, id)
	}
	slices.Sort(g.ids)
	for i, id := range g.ids {
		index[id] = VID(i)
	}
	rows := func(adj map[int64]map[int64]bool) ([]int64, []VID) {
		off, flat := []int64{0}, []VID{}
		for _, id := range g.ids {
			row := []VID{}
			for w := range adj[id] {
				row = append(row, index[w])
			}
			slices.Sort(row)
			flat = append(flat, row...)
			off = append(off, int64(len(flat)))
		}
		return off, flat
	}
	g.outOff, g.outAdj = rows(out)
	g.inOff, g.inAdj = rows(in)
	if g.m = int64(len(g.outAdj)); !directed {
		g.m /= 2
	}
	g.deg = make([]int32, len(g.ids))
	for i, id := range g.ids {
		d := len(out[id])
		if directed {
			d += len(in[id])
		}
		g.deg[i] = int32(d)
	}
	return g, nil
}

// mustOracle is oracleBuild for inputs known to be non-empty.
func mustOracle(t *testing.T, directed bool, vertices []int64, pairs [][2]int64) *Graph {
	t.Helper()
	g, err := oracleBuild(directed, vertices, pairs)
	if err != nil {
		t.Fatalf("oracle build: %v", err)
	}
	return g
}

// streamFromPairs builds a graph from the pair list via StreamBuilder's
// replay protocol.
func streamFromPairs(t *testing.T, directed bool, pairs [][2]int64, opts StreamOptions) (*Graph, error) {
	t.Helper()
	sb, err := NewStreamBuilder(directed, opts)
	if err != nil {
		t.Fatalf("NewStreamBuilder: %v", err)
	}
	return streamReplay(sb, pairs)
}

// randomPairs draws edge soup over [0, n): duplicates, self-loops and
// unordered endpoints all occur.
func randomPairs(rng *rand.Rand, n, count int) [][2]int64 {
	pairs := make([][2]int64, count)
	for i := range pairs {
		pairs[i] = [2]int64{rng.Int63n(int64(n)), rng.Int63n(int64(n))}
	}
	return pairs
}

// TestStreamBuilderMatchesBuilderDense checks the stream builder and
// Builder against the oracle on the same dense vertex universe.
func TestStreamBuilderMatchesBuilderDense(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(40)
			pairs := randomPairs(rng, n, rng.Intn(200))
			want := binaryBytes(t, mustOracle(t, directed, identityIDs(n), pairs))

			got, err := streamFromPairs(t, directed, pairs, StreamOptions{DenseVertices: int64(n)})
			if err != nil {
				t.Fatalf("stream build (directed=%v trial=%d): %v", directed, trial, err)
			}
			if !bytes.Equal(binaryBytes(t, got), want) {
				t.Fatalf("directed=%v trial=%d: stream CSR differs from oracle:\n got %s",
					directed, trial, edgeFingerprint(got))
			}

			b := NewBuilder(directed)
			for v := 0; v < n; v++ {
				b.AddVertex(int64(v))
			}
			for _, p := range pairs {
				b.AddEdge(p[0], p[1])
			}
			viaBuilder, err := b.Build()
			if err != nil {
				t.Fatalf("Builder: %v", err)
			}
			if !bytes.Equal(binaryBytes(t, viaBuilder), want) {
				t.Fatalf("directed=%v trial=%d: Builder differs from oracle:\n got %s",
					directed, trial, edgeFingerprint(viaBuilder))
			}
		}
	}
}

// sparseIDCase is one Builder input over arbitrary int64 IDs, with IDs
// that must not resolve in the built graph.
type sparseIDCase struct {
	name     string
	vertices []int64
	pairs    [][2]int64
	absent   []int64
}

// sparseIDCases are the ID-space edge cases shared by the Builder oracle
// test and the StreamBuilder rank re-stream test.
var sparseIDCases = []sparseIDCase{
	{
		// Negatives and wide gaps, ranked in ascending order.
		name:     "mixed IDs",
		vertices: []int64{999},
		pairs: [][2]int64{
			{100, -7}, {-7, 100}, {5, 5}, {1 << 40, 100}, {3, 1 << 40},
			{-7, 3}, {100, -7}, {3, -7},
		},
	},
	{
		name:   "gaps and negatives",
		pairs:  [][2]int64{{3, -7}, {1 << 40, 0}, {-1 << 40, 3}},
		absent: []int64{-1<<40 - 1, -8, 1, 4, 1<<40 + 1},
	},
	{name: "duplicate AddVertex", vertices: []int64{4, 4, 2, 4}, pairs: [][2]int64{{2, 9}}},
	{name: "isolated only", vertices: []int64{7, -3, 1 << 40}},
	{name: "self-loops only", pairs: [][2]int64{{1, 1}, {-5, -5}}},
	{name: "extreme IDs", pairs: [][2]int64{{-1 << 40, 1 << 40}, {math.MinInt64, math.MaxInt64}, {-1, 0}}},
	{
		// The largest ID appears only as a source, first in the buffer.
		name:   "largest ID first",
		pairs:  [][2]int64{{1 << 40, 5}, {1 << 40, -3}, {5, -3}},
		absent: []int64{0, 1<<40 - 1},
	},
	{
		name:   "dense negatives",
		pairs:  [][2]int64{{-3, 2}, {2, -1}, {0, -3}, {-1, 0}, {2, -3}},
		absent: []int64{-4, -2, 1, 3},
	},
	{
		name:     "dense at MaxInt64",
		vertices: []int64{math.MaxInt64 - 3},
		pairs:    [][2]int64{{math.MaxInt64, math.MaxInt64 - 1}, {math.MaxInt64 - 1, math.MaxInt64}},
		absent:   []int64{math.MaxInt64 - 2, math.MaxInt64 - 4},
	},
	{
		name:   "dense at MinInt64",
		pairs:  [][2]int64{{math.MinInt64, math.MinInt64 + 2}, {math.MinInt64 + 2, math.MinInt64 + 1}},
		absent: []int64{math.MinInt64 + 3},
	},
	{name: "empty"},
}

// TestBuilderMatchesOracleSparseIDs covers Builder's two ranking paths
// on edge cases of the ID space and of the input: the flat rank table
// (IDs spanning a range close to their count, at either end of int64)
// and the sorted path (negatives, wide gaps, the int64 extremes). Every
// case must match the oracle, including its ErrEmptyGraph verdict, the
// graph must keep its ids in an exact-size table, every ID must resolve
// through Lookup and every absent probe must miss.
func TestBuilderMatchesOracleSparseIDs(t *testing.T) {
	for _, tc := range sparseIDCases {
		for _, directed := range []bool{false, true} {
			want, wantErr := oracleBuild(directed, tc.vertices, tc.pairs)
			b := NewBuilder(directed)
			for _, id := range tc.vertices {
				b.AddVertex(id)
			}
			for _, p := range tc.pairs {
				b.AddEdge(p[0], p[1])
			}
			got, err := b.Build()
			if wantErr != nil {
				if !errors.Is(err, wantErr) {
					t.Fatalf("%s directed=%v: err %v, want %v", tc.name, directed, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s directed=%v: %v", tc.name, directed, err)
			}
			if !bytes.Equal(binaryBytes(t, got), binaryBytes(t, want)) {
				t.Fatalf("%s directed=%v differs from oracle:\n got %s\nwant %s",
					tc.name, directed, edgeFingerprint(got), edgeFingerprint(want))
			}
			if len(got.ids) != cap(got.ids) {
				t.Fatalf("%s directed=%v: ids len %d cap %d, want an exact-size table",
					tc.name, directed, len(got.ids), cap(got.ids))
			}
			for v, id := range want.ExternalIDs() {
				if gv, ok := got.Lookup(id); !ok || gv != VID(v) || got.ExternalID(gv) != id {
					t.Fatalf("%s: Lookup(%d) = (%d,%v), want (%d,true)", tc.name, id, gv, ok, v)
				}
			}
			for _, id := range tc.absent {
				if v, ok := got.Lookup(id); ok {
					t.Fatalf("%s: Lookup(%d) = %d for an absent ID", tc.name, id, v)
				}
			}
		}
	}
}

// restreamRanks rebuilds g through StreamBuilder: each pair's endpoints
// are replaced by their VIDs in g, pass 1 streams the pairs in order and
// pass 2 replays them in reverse, as any replay order must give the same
// graph. Self-loops, which neither builder keeps, are skipped, since a
// vertex seen only in a self-loop has no VID in g.
func restreamRanks(t *testing.T, g *Graph, pairs [][2]int64) *Graph {
	t.Helper()
	sb, err := NewStreamBuilder(g.Directed(), StreamOptions{DenseVertices: int64(g.NumVertices())})
	if err != nil {
		t.Fatalf("NewStreamBuilder: %v", err)
	}
	var ranks [][2]int64
	for _, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		u, uok := g.Lookup(p[0])
		v, vok := g.Lookup(p[1])
		if !uok || !vok {
			t.Fatalf("edge %v has an endpoint missing from the built graph", p)
		}
		ranks = append(ranks, [2]int64{int64(u), int64(v)})
	}
	for _, p := range ranks {
		sb.AddEdge(p[0], p[1])
	}
	if err := sb.Rewind(); err != nil {
		t.Fatalf("Rewind: %v", err)
	}
	for i := len(ranks) - 1; i >= 0; i-- {
		sb.AddEdge(ranks[i][0], ranks[i][1])
	}
	got, err := sb.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return got
}

// sameRows reports whether a and b have the same direction, edge count
// and CSR rows; their ID tables are not compared.
func sameRows(a, b *Graph) bool {
	return a.directed == b.directed && a.m == b.m &&
		slices.Equal(a.outOff, b.outOff) && slices.Equal(a.outAdj, b.outAdj) &&
		slices.Equal(a.inOff, b.inOff) && slices.Equal(a.inAdj, b.inAdj)
}

// TestStreamBuilderMatchesBuilderSparse streams the ranks of every
// sparse-ID case through StreamBuilder and checks that its sorted,
// deduplicated rows equal the counting-sort rows Builder built from the
// raw IDs. A case with no vertex must be refused by both as empty.
func TestStreamBuilderMatchesBuilderSparse(t *testing.T) {
	for _, tc := range sparseIDCases {
		for _, directed := range []bool{false, true} {
			b := NewBuilder(directed)
			for _, id := range tc.vertices {
				b.AddVertex(id)
			}
			for _, p := range tc.pairs {
				b.AddEdge(p[0], p[1])
			}
			g, err := b.Build()
			if errors.Is(err, ErrEmptyGraph) {
				if _, err := NewStreamBuilder(directed, StreamOptions{}); !errors.Is(err, ErrEmptyGraph) {
					t.Fatalf("%s directed=%v: StreamBuilder err %v, want ErrEmptyGraph", tc.name, directed, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s directed=%v: %v", tc.name, directed, err)
			}
			if got := restreamRanks(t, g, tc.pairs); !sameRows(got, g) {
				t.Fatalf("%s directed=%v: StreamBuilder rows differ from Builder:\n got %s\nwant %s",
					tc.name, directed, edgeFingerprint(got), edgeFingerprint(g))
			}
		}
	}
}

// TestStreamBuilderConcurrent exercises the atomic count/fill paths from
// multiple goroutines; run under -race.
func TestStreamBuilderConcurrent(t *testing.T) {
	const n, producers, perProducer = 64, 4, 500
	// Deterministic per-producer edge sets.
	edgeSets := make([][][2]int64, producers)
	var all [][2]int64
	for p := range edgeSets {
		rng := rand.New(rand.NewSource(int64(100 + p)))
		edgeSets[p] = randomPairs(rng, n, perProducer)
		all = append(all, edgeSets[p]...)
	}
	want := mustOracle(t, false, identityIDs(n), all)

	t.Run("replay", func(t *testing.T) {
		sb, err := NewStreamBuilder(false, StreamOptions{DenseVertices: n, Workers: producers})
		if err != nil {
			t.Fatal(err)
		}
		stream := func() {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for _, e := range edgeSets[p] {
						sb.AddEdge(e[0], e[1])
					}
				}(p)
			}
			wg.Wait()
		}
		stream()
		if err := sb.Rewind(); err != nil {
			t.Fatal(err)
		}
		stream()
		got, err := sb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(binaryBytes(t, got), binaryBytes(t, want)) {
			t.Fatal("concurrent replay build differs from the oracle")
		}
	})
}

func TestStreamBuilderErrors(t *testing.T) {
	t.Run("dense range", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 4})
		sb.AddEdge(1, 9)
		if err := sb.Rewind(); !errors.Is(err, ErrStreamRange) {
			t.Fatalf("got %v, want ErrStreamRange", err)
		}
	})
	t.Run("oversized dense universe", func(t *testing.T) {
		if _, err := NewStreamBuilder(false, StreamOptions{DenseVertices: 1 << 33}); !errors.Is(err, ErrStreamRange) {
			t.Fatalf("got %v, want ErrStreamRange", err)
		}
	})
	t.Run("finish before pass 2", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 4})
		sb.AddEdge(0, 1)
		if _, err := sb.Finish(); !errors.Is(err, ErrStreamPass) {
			t.Fatalf("got %v, want ErrStreamPass", err)
		}
	})
	t.Run("extra pass-2 edge", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 4})
		sb.AddEdge(0, 1)
		if err := sb.Rewind(); err != nil {
			t.Fatal(err)
		}
		sb.AddEdge(0, 1)
		sb.AddEdge(0, 2) // never counted
		if _, err := sb.Finish(); !errors.Is(err, ErrStreamMismatch) {
			t.Fatalf("got %v, want ErrStreamMismatch", err)
		}
	})
	t.Run("missing pass-2 edge", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 4})
		sb.AddEdge(0, 1)
		sb.AddEdge(2, 3)
		if err := sb.Rewind(); err != nil {
			t.Fatal(err)
		}
		sb.AddEdge(0, 1)
		if _, err := sb.Finish(); !errors.Is(err, ErrStreamMismatch) {
			t.Fatalf("got %v, want ErrStreamMismatch", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := NewStreamBuilder(false, StreamOptions{}); !errors.Is(err, ErrEmptyGraph) {
			t.Fatalf("got %v, want ErrEmptyGraph", err)
		}
	})
	t.Run("vertices only", func(t *testing.T) {
		// Edge-free builds may Finish straight from pass 1.
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 3})
		g, err := sb.Finish()
		if err != nil {
			t.Fatalf("vertex-only build: %v", err)
		}
		if g.NumVertices() != 3 || g.NumEdges() != 0 {
			t.Fatalf("got n=%d m=%d, want n=3 m=0", g.NumVertices(), g.NumEdges())
		}
	})
}

// TestStreamBuilderLookupFallback covers Lookup on a streamed graph's
// dense IDs, its offset path; sparse IDs with gaps and negatives, the
// binary search, are in TestStreamBuilderLookupSparse.
func TestStreamBuilderLookupFallback(t *testing.T) {
	g, err := streamFromPairs(t, false, [][2]int64{{0, 1}, {1, 2}}, StreamOptions{DenseVertices: 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 5; v++ {
		got, ok := g.Lookup(v)
		if !ok || int64(got) != v {
			t.Fatalf("Lookup(%d) = (%d,%v)", v, got, ok)
		}
	}
	if _, ok := g.Lookup(5); ok {
		t.Fatal("Lookup(5) found a vertex outside the universe")
	}
	if _, err := g.MustLookup(-1); err == nil {
		t.Fatal("MustLookup(-1) succeeded")
	}
}

// TestStreamBuilderLookupSparse resolves IDs with gaps and negatives in
// a Builder graph, then checks that the StreamBuilder graph over their
// ranks resolves each rank to itself and holds the same rows.
func TestStreamBuilderLookupSparse(t *testing.T) {
	ids := []int64{-1 << 40, -7, 0, 3, 1 << 40}
	pairs := [][2]int64{{3, -7}, {1 << 40, 0}, {-1 << 40, 3}}
	b := NewBuilder(true)
	for _, p := range pairs {
		b.AddEdge(p[0], p[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for want, id := range ids {
		got, ok := g.Lookup(id)
		if !ok || int(got) != want || g.ExternalID(got) != id {
			t.Fatalf("Lookup(%d) = (%d,%v), want (%d,true)", id, got, ok, want)
		}
	}
	for _, id := range []int64{-1<<40 - 1, -8, 1, 4, 1<<40 + 1} {
		if v, ok := g.Lookup(id); ok {
			t.Fatalf("Lookup(%d) = %d for an absent ID", id, v)
		}
	}
	sg := restreamRanks(t, g, pairs)
	for v := range ids {
		if got, ok := sg.Lookup(int64(v)); !ok || int(got) != v {
			t.Fatalf("stream Lookup(%d) = (%d,%v), want (%d,true)", v, got, ok, v)
		}
	}
	if !sameRows(sg, g) {
		t.Fatalf("StreamBuilder rows differ from Builder:\n got %s\nwant %s", edgeFingerprint(sg), edgeFingerprint(g))
	}
}

func TestStreamBuilderInstrument(t *testing.T) {
	rec := obs.NewRecorder()
	sb, err := NewStreamBuilder(false, StreamOptions{DenseVertices: 8})
	if err != nil {
		t.Fatal(err)
	}
	p1 := rec.Counter("pass1")
	p2 := rec.Counter("pass2")
	peak := rec.Gauge("peak")
	sb.Instrument(p1, p2, peak)
	pairs := [][2]int64{{0, 1}, {1, 2}, {2, 2}, {1, 0}}
	if _, err := streamReplay(sb, pairs); err != nil {
		t.Fatal(err)
	}
	// Self-loops never reach the counters.
	if p1.Value() != 3 || p2.Value() != 3 {
		t.Fatalf("pass counters = (%d,%d), want (3,3)", p1.Value(), p2.Value())
	}
	if peak.Value() <= 0 {
		t.Fatalf("peak gauge = %d, want > 0", peak.Value())
	}
}

// streamReplay drives the two-pass replay protocol for a fixed pair list.
func streamReplay(sb *StreamBuilder, pairs [][2]int64) (*Graph, error) {
	for _, p := range pairs {
		sb.AddEdge(p[0], p[1])
	}
	if err := sb.Rewind(); err != nil {
		return nil, err
	}
	for _, p := range pairs {
		sb.AddEdge(p[0], p[1])
	}
	return sb.Finish()
}
