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

// binaryBytes serializes a graph for bit-identity comparisons; the
// binary format excludes the interning map, so dense (index-free) and
// map-backed graphs with the same structure compare equal.
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
// no code with StreamBuilder.
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
	g := &Graph{directed: directed, index: map[int64]VID{}}
	for id := range out {
		g.ids = append(g.ids, id)
	}
	slices.Sort(g.ids)
	for i, id := range g.ids {
		g.index[id] = VID(i)
	}
	rows := func(adj map[int64]map[int64]bool) ([]int64, []VID) {
		off, flat := []int64{0}, []VID{}
		for _, id := range g.ids {
			row := []VID{}
			for w := range adj[id] {
				row = append(row, g.index[w])
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

// denseIDs returns the IDs 0..n-1.
func denseIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
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

// TestStreamBuilderMatchesBuilderDense checks the dense mode against the
// oracle and against Builder, which drives the sparse mode.
func TestStreamBuilderMatchesBuilderDense(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(40)
			pairs := randomPairs(rng, n, rng.Intn(200))
			want := binaryBytes(t, mustOracle(t, directed, denseIDs(n), pairs))

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

// TestStreamBuilderMatchesBuilderSparse covers the sparse interning mode,
// directly and through the Builder façade, on edge cases of the ID space
// and of the input: every case must match the oracle, including its
// ErrEmptyGraph verdict.
func TestStreamBuilderMatchesBuilderSparse(t *testing.T) {
	cases := []struct {
		name     string
		vertices []int64
		pairs    [][2]int64
	}{
		{
			// Negatives and wide gaps, interned in ascending order.
			name:     "mixed IDs",
			vertices: []int64{999},
			pairs: [][2]int64{
				{100, -7}, {-7, 100}, {5, 5}, {1 << 40, 100}, {3, 1 << 40},
				{-7, 3}, {100, -7}, {3, -7},
			},
		},
		{name: "duplicate AddVertex", vertices: []int64{4, 4, 2, 4}, pairs: [][2]int64{{2, 9}}},
		{name: "isolated only", vertices: []int64{7, -3, 1 << 40}},
		{name: "self-loops only", pairs: [][2]int64{{1, 1}, {-5, -5}}},
		{name: "extreme IDs", pairs: [][2]int64{{-1 << 40, 1 << 40}, {math.MinInt64, math.MaxInt64}, {-1, 0}}},
		{name: "empty"},
	}
	for _, tc := range cases {
		for _, directed := range []bool{false, true} {
			want, wantErr := oracleBuild(directed, tc.vertices, tc.pairs)
			check := func(how string, got *Graph, err error) {
				t.Helper()
				if wantErr != nil {
					if !errors.Is(err, wantErr) {
						t.Fatalf("%s directed=%v %s: err %v, want %v", tc.name, directed, how, err, wantErr)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s directed=%v %s: %v", tc.name, directed, how, err)
				}
				if !bytes.Equal(binaryBytes(t, got), binaryBytes(t, want)) {
					t.Fatalf("%s directed=%v %s differs from oracle:\n got %s\nwant %s",
						tc.name, directed, how, edgeFingerprint(got), edgeFingerprint(want))
				}
				// Sparse graphs keep the interning map; every ID resolves.
				for v, id := range want.ExternalIDs() {
					if got, ok := got.Lookup(id); !ok || got != VID(v) {
						t.Fatalf("%s %s: Lookup(%d) = (%d,%v)", tc.name, how, id, got, ok)
					}
				}
			}

			b := NewBuilder(directed)
			for _, id := range tc.vertices {
				b.AddVertex(id)
			}
			for _, p := range tc.pairs {
				b.AddEdge(p[0], p[1])
			}
			g, err := b.Build()
			check("Builder", g, err)

			sb, err := NewStreamBuilder(directed, StreamOptions{})
			if err != nil {
				t.Fatalf("NewStreamBuilder: %v", err)
			}
			for _, id := range tc.vertices {
				sb.AddVertex(id)
			}
			for _, p := range tc.pairs {
				sb.AddEdge(p[0], p[1])
			}
			if err := sb.Rewind(); err != nil {
				t.Fatalf("Rewind: %v", err)
			}
			// Pass 2 may replay the multiset in any order.
			for i := len(tc.pairs) - 1; i >= 0; i-- {
				sb.AddEdge(tc.pairs[i][0], tc.pairs[i][1])
			}
			g, err = sb.Finish()
			check("StreamBuilder", g, err)
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
	want := mustOracle(t, false, denseIDs(n), all)

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
	t.Run("unknown sparse pass-2 vertex", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{})
		sb.AddEdge(10, 20)
		if err := sb.Rewind(); err != nil {
			t.Fatal(err)
		}
		sb.AddEdge(10, 30)
		if _, err := sb.Finish(); !errors.Is(err, ErrStreamMismatch) {
			t.Fatalf("got %v, want ErrStreamMismatch", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{})
		if _, err := sb.Finish(); !errors.Is(err, ErrEmptyGraph) {
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

// TestStreamBuilderLookupFallback covers the nil-index binary-search path
// dense-mode graphs rely on.
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
