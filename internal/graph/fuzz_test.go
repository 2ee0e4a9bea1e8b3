package graph

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// decodePairs turns fuzz bytes into (u,v) pairs over a small ID space.
// Two bytes per pair keeps the space dense enough that duplicates,
// self-loops and unordered edges all occur naturally.
func decodePairs(data []byte, mod int) [][2]int64 {
	pairs := make([][2]int64, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		pairs = append(pairs, [2]int64{int64(data[i] % byte(mod)), int64(data[i+1] % byte(mod))})
	}
	return pairs
}

// edgeFingerprint renders a graph's full structure (IDs + adjacency) for
// equality checks.
func edgeFingerprint(g *Graph) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "directed=%v n=%d m=%d ids=%v\n", g.Directed(), g.NumVertices(), g.NumEdges(), g.ExternalIDs())
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(&buf, "%d:%v;%v\n", v, g.OutNeighbors(VID(v)), g.InNeighbors(VID(v)))
	}
	return buf.String()
}

// FuzzBuilder feeds the Builder arbitrary edge soup — duplicates,
// self-loops, unordered endpoints — and checks the built graph against
// the naive oracle and every structural invariant, checks the stream
// builder's dense mode against the oracle too, then round-trips the graph
// through an identity-rewired Overlay and Materialize back to an equal
// graph.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 1}, false)
	f.Add([]byte{0, 0, 1, 1, 2, 2}, true)       // all self-loops
	f.Add([]byte{1, 2, 2, 1, 1, 2, 2, 1}, true) // duplicates both ways
	f.Add([]byte{7, 3, 3, 7, 5, 5, 0, 7}, false)
	f.Fuzz(func(t *testing.T, data []byte, directed bool) {
		const mod = 16
		pairs := decodePairs(data, mod)
		want, wantErr := oracleBuild(directed, nil, pairs)
		g, err := FromEdges(directed, pairs)
		if wantErr != nil {
			// Input without a non-loop edge is rejected as ErrEmptyGraph.
			if !errors.Is(err, ErrEmptyGraph) {
				t.Fatalf("oracle rejects the input (%v) but Builder returned %v", wantErr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("build rejected non-empty input: %v", err)
		}
		if got, want := edgeFingerprint(g), edgeFingerprint(want); got != want {
			t.Fatalf("Builder diverged from the oracle:\n got %s\nwant %s", got, want)
		}

		// The dense mode over the whole ID range [0, mod).
		sb, err := NewStreamBuilder(directed, StreamOptions{DenseVertices: mod})
		if err != nil {
			t.Fatalf("NewStreamBuilder: %v", err)
		}
		dg, err := streamReplay(sb, pairs)
		if err != nil {
			t.Fatalf("dense stream build rejected the input: %v", err)
		}
		dwant := mustOracle(t, directed, denseIDs(mod), pairs)
		if got, want := edgeFingerprint(dg), edgeFingerprint(dwant); got != want {
			t.Fatalf("dense stream builder diverged from the oracle:\n got %s\nwant %s", got, want)
		}

		// Structural invariants: no self-loops, rows sorted and
		// duplicate-free, degree sum consistent with m.
		var degSum int64
		for v := 0; v < g.NumVertices(); v++ {
			row := g.OutNeighbors(VID(v))
			for i, w := range row {
				if w == VID(v) {
					t.Fatalf("self-loop survived at vertex %d", v)
				}
				if i > 0 && row[i-1] >= w {
					t.Fatalf("row %d not strictly ascending: %v", v, row)
				}
			}
			degSum += int64(g.Degree(VID(v)))
		}
		if degSum != 2*g.NumEdges() {
			t.Fatalf("degree sum %d != 2m %d", degSum, 2*g.NumEdges())
		}

		// Round-trip: identity overlay -> Materialize must reproduce the
		// graph exactly, regardless of how messy the input edges were.
		o := NewOverlay(g)
		back, err := o.Materialize()
		if err != nil {
			t.Fatalf("materialize identity overlay: %v", err)
		}
		if got, want := edgeFingerprint(back), edgeFingerprint(g); got != want {
			t.Fatalf("materialize round-trip diverged:\n got %s\nwant %s", got, want)
		}
	})
}

// FuzzOverlayFillFromEdges drives the exact-degree fill with both valid
// sequences (the parent's own edges, possibly reordered by the fuzz
// input) and arbitrary invalid ones. Valid fills must succeed without
// the degree-exactness errors ever firing; invalid ones must error
// without corrupting the parent or poisoning the overlay for reuse.
func FuzzOverlayFillFromEdges(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 4, 4, 1}, []byte{0}, false)
	f.Add([]byte{1, 2, 2, 3, 1, 3}, []byte{2, 1, 0}, true)
	f.Add([]byte{5, 6, 6, 7}, []byte{9, 9, 9, 9}, false)
	f.Fuzz(func(t *testing.T, graphData, fillData []byte, directed bool) {
		g, err := FromEdges(directed, decodePairs(graphData, 12))
		if err != nil {
			return
		}
		before := edgeFingerprint(g)
		o := NewOverlay(g)

		// Valid fill: the parent's own edge list, rotated by the fuzz
		// input — any order must realize the degree sequence exactly.
		valid := g.EdgeList()
		if len(valid) > 0 && len(fillData) > 0 {
			rot := int(fillData[0]) % len(valid)
			valid = append(valid[rot:], valid[:rot]...)
		}
		if err := o.FillFromEdges(valid); err != nil {
			t.Fatalf("valid fill rejected: %v", err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if got, want := len(o.OutNeighbors(VID(v))), g.OutDegree(VID(v)); got != want {
				t.Fatalf("vertex %d: overlay row length %d != parent out-degree %d", v, got, want)
			}
		}

		// Arbitrary fill: decoded from the fuzz input over the parent's
		// dense vertex space; most sequences violate the degree sequence
		// and must error cleanly.
		n := g.NumVertices()
		arbitrary := make([]Edge, 0, len(fillData)/2)
		for i := 0; i+1 < len(fillData); i += 2 {
			arbitrary = append(arbitrary, Edge{
				From: VID(int(fillData[i]) % n),
				To:   VID(int(fillData[i+1]) % n),
			})
		}
		fillErr := o.FillFromEdges(arbitrary)
		if fillErr == nil {
			// The fill claimed success, so every row must again be
			// exactly full.
			for v := 0; v < n; v++ {
				if got, want := len(o.OutNeighbors(VID(v))), g.OutDegree(VID(v)); got != want {
					t.Fatalf("accepted fill left vertex %d with %d of %d neighbors", v, got, want)
				}
			}
		}

		// Error or not, the parent is untouched and the overlay remains
		// reusable: a Reset restores the identity view.
		if after := edgeFingerprint(g); after != before {
			t.Fatalf("parent corrupted by fill (err=%v):\nbefore %s\nafter %s", fillErr, before, after)
		}
		o.Reset()
		for v := 0; v < n; v++ {
			parentRow := g.OutNeighbors(VID(v))
			overlayRow := o.OutNeighbors(VID(v))
			for i := range parentRow {
				if overlayRow[i] != parentRow[i] {
					t.Fatalf("overlay not reusable after fill error %v: row %d differs", fillErr, v)
				}
			}
		}
	})
}

// FuzzReadBinary feeds ReadBinary arbitrary bytes. It must never panic,
// and any graph it accepts must be well formed — equal to the oracle
// rebuilt from its own IDs and out-rows — and must re-encode through
// WriteBinary to bytes that read back and re-encode identically.
func FuzzReadBinary(f *testing.F) {
	for _, directed := range []bool{false, true} {
		g, err := FromEdges(directed, [][2]int64{{1, 2}, {2, 3}, {3, 1}, {-4, 1}})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("not a gob stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		ids := g.ExternalIDs()
		var pairs [][2]int64
		for v := range ids {
			for _, w := range g.OutNeighbors(VID(v)) {
				pairs = append(pairs, [2]int64{ids[v], ids[w]})
			}
		}
		want, err := oracleBuild(g.Directed(), ids, pairs)
		if err != nil {
			if g.NumVertices() != 0 || g.NumEdges() != 0 {
				t.Fatalf("oracle rejected an accepted non-empty graph: %v", err)
			}
		} else if got, want := edgeFingerprint(g), edgeFingerprint(want); got != want {
			t.Fatalf("accepted graph is malformed:\n got %s\nwant %s", got, want)
		}

		var enc bytes.Buffer
		if err := WriteBinary(&enc, g); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		back, err := ReadBinary(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded graph rejected: %v", err)
		}
		var again bytes.Buffer
		if err := WriteBinary(&again, back); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		if !bytes.Equal(again.Bytes(), enc.Bytes()) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
