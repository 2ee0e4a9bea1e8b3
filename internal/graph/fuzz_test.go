package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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

// scatteredIDs maps fuzz bytes onto IDs spread over all of int64, so
// that most inputs take Builder's sorted-ID path and some its rank table
// at either end of the range.
var scatteredIDs = [16]int64{
	math.MinInt64, math.MinInt64 + 1, -1 << 40, -99991, -7, -1, 0, 1,
	2, 5, 1000, 1 << 32, 1 << 40, 1<<40 + 1, math.MaxInt64 - 1, math.MaxInt64,
}

// scatter replaces every dense ID in [0, 16) by its scattered ID.
func scatter(pairs [][2]int64) [][2]int64 {
	out := make([][2]int64, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int64{scatteredIDs[p[0]], scatteredIDs[p[1]]}
	}
	return out
}

// edgeFingerprint renders a graph's full structure (IDs, degree array
// and adjacency) for equality checks.
func edgeFingerprint(g *Graph) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "directed=%v n=%d m=%d ids=%v deg=%v\n", g.Directed(), g.NumVertices(), g.NumEdges(), g.ExternalIDs(), g.Degrees())
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(&buf, "%d:%v;%v\n", v, g.OutNeighbors(VID(v)), g.InNeighbors(VID(v)))
	}
	return buf.String()
}

// FuzzBuilder feeds the Builder arbitrary edge soup — duplicates,
// self-loops, unordered endpoints — and checks the built graph against
// the naive oracle and every structural invariant, checks the stream
// builder and FromArcs on the dense IDs against the oracle too, then
// round-trips the graph through an identity-rewired Overlay and
// Materialize back to an equal graph. With scattered set the IDs are
// drawn from scatteredIDs instead of [0, 16).
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 1}, false, false)
	f.Add([]byte{0, 0, 1, 1, 2, 2}, true, false)       // all self-loops
	f.Add([]byte{1, 2, 2, 1, 1, 2, 2, 1}, true, false) // duplicates both ways
	f.Add([]byte{7, 3, 3, 7, 5, 5, 0, 7}, false, false)
	f.Add([]byte{0, 15, 15, 0, 4, 6, 6, 4, 12, 4}, true, true) // int64 extremes
	f.Add([]byte{14, 15, 15, 14, 14, 15}, false, true)         // rank table at MaxInt64
	f.Add([]byte{0, 1, 1, 0, 1, 1}, true, true)                // rank table at MinInt64
	f.Add([]byte{15, 3, 15, 4, 3, 4}, false, true)             // largest ID leads
	f.Fuzz(func(t *testing.T, data []byte, directed, scattered bool) {
		const mod = 16
		pairs := decodePairs(data, mod)
		dense := pairs
		if scattered {
			pairs = scatter(pairs)
		}
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
		checkDegrees(t, "Builder", g)

		// The stream builder over the whole dense ID range [0, mod).
		sb, err := NewStreamBuilder(directed, StreamOptions{DenseVertices: mod})
		if err != nil {
			t.Fatalf("NewStreamBuilder: %v", err)
		}
		dg, err := streamReplay(sb, dense)
		if err != nil {
			t.Fatalf("dense stream build rejected the input: %v", err)
		}
		dwant := mustOracle(t, directed, identityIDs(mod), dense)
		if got, want := edgeFingerprint(dg), edgeFingerprint(dwant); got != want {
			t.Fatalf("dense stream builder diverged from the oracle:\n got %s\nwant %s", got, want)
		}
		checkDegrees(t, "StreamBuilder", dg)

		// FromArcs over the same dense vertex range, the pairs as VIDs.
		from, to := make([]VID, len(dense)), make([]VID, len(dense))
		for i, p := range dense {
			from[i], to[i] = VID(p[0]), VID(p[1])
		}
		ag, err := FromArcs(directed, identityIDs(mod), from, to)
		if err != nil {
			t.Fatalf("FromArcs rejected the input: %v", err)
		}
		if got, want := edgeFingerprint(ag), edgeFingerprint(dwant); got != want {
			t.Fatalf("FromArcs diverged from the oracle:\n got %s\nwant %s", got, want)
		}
		checkDegrees(t, "FromArcs", ag)

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
// the degree-exactness errors ever firing, and every accepted fill must
// read, through each Graph method, like its materialized copy. Invalid
// fills must error without corrupting the parent or poisoning the
// overlay for reuse.
func FuzzOverlayFillFromEdges(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 4, 4, 1}, []byte{0}, false)
	f.Add([]byte{1, 2, 2, 3, 1, 3}, []byte{2, 1, 0}, true)
	f.Add([]byte{5, 6, 6, 7}, []byte{9, 9, 9, 9}, false)
	// Fills that match every degree but are not simple graphs.
	f.Add([]byte{0, 1, 1, 2, 2, 0}, []byte{0, 0, 1, 2, 1, 2}, false) // self-loop
	f.Add([]byte{0, 1, 1, 2, 2, 0}, []byte{0, 0, 1, 2, 2, 1}, true)  // self-loop
	f.Add([]byte{0, 1, 0, 2, 1, 2}, []byte{0, 2, 0, 2, 1, 1}, true)  // repeated arc
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
		checkReadsLikeMaterialized(t, o)
		checkOverlayDegrees(t, o)

		// Arbitrary fill: decoded from the fuzz input over the parent's
		// dense vertex space; most sequences violate the degree sequence
		// or simplicity and must error cleanly.
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
			checkReadsLikeMaterialized(t, o)
			checkOverlayDegrees(t, o)
		}

		// Error or not, the parent is untouched and the overlay remains
		// reusable: a Reset restores the parent's adjacency.
		if after := edgeFingerprint(g); after != before {
			t.Fatalf("parent corrupted by fill (err=%v):\nbefore %s\nafter %s", fillErr, before, after)
		}
		o.Reset()
		if got := edgeFingerprint(&o.Graph); got != before {
			t.Fatalf("overlay not reusable after fill error %v:\n got %s\nwant %s", fillErr, got, before)
		}
	})
}

// checkOverlayDegrees asserts that a filled overlay's degrees match its
// rows and that it reads them from its base's array.
func checkOverlayDegrees(t *testing.T, o *Overlay) {
	t.Helper()
	checkDegrees(t, "Overlay", &o.Graph)
	if od, bd := o.Degrees(), o.Base().Degrees(); len(od) == 0 || &od[0] != &bd[0] {
		t.Fatal("the overlay does not share its base's degree array")
	}
}

// checkReadsLikeMaterialized asserts that every read method of the
// overlay's graph agrees with the same method on its Materialize()d copy.
// Both share the ascending ids table, so their dense indices coincide.
func checkReadsLikeMaterialized(t *testing.T, o *Overlay) {
	t.Helper()
	want, err := o.Materialize()
	if err != nil {
		t.Fatalf("materialize accepted fill: %v", err)
	}
	got := &o.Graph
	if g, w := edgeFingerprint(got), edgeFingerprint(want); g != w {
		t.Fatalf("overlay reads differ from materialized:\n got %s\nwant %s", g, w)
	}
	same := func(what string, g, w any) {
		t.Helper()
		if gs, ws := fmt.Sprint(g), fmt.Sprint(w); gs != ws {
			t.Fatalf("%s: overlay %s, materialized %s", what, gs, ws)
		}
	}
	same("EdgeList", got.EdgeList(), want.EdgeList())
	same("DegreeSequence", got.DegreeSequence(), want.DegreeSequence())
	same("InDegreeSequence", got.InDegreeSequence(), want.InDegreeSequence())
	same("OutDegreeSequence", got.OutDegreeSequence(), want.OutDegreeSequence())
	same("ExternalIDs", got.ExternalIDs(), want.ExternalIDs())
	// The means are computed from the same integers in the same order,
	// so their float64 bits must match.
	same("MeanDegree", got.MeanDegree(), want.MeanDegree())
	same("MeanInDegree", got.MeanInDegree(), want.MeanInDegree())
	same("MeanOutDegree", got.MeanOutDegree(), want.MeanOutDegree())
	n := VID(got.NumVertices())
	for u := VID(0); u < n; u++ {
		same(fmt.Sprintf("degrees of %d", u),
			[3]int{got.Degree(u), got.InDegree(u), got.OutDegree(u)},
			[3]int{want.Degree(u), want.InDegree(u), want.OutDegree(u)})
		for v := VID(0); v < n; v++ {
			if got.HasEdge(u, v) != want.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d, %d) = %v on the overlay", u, v, got.HasEdge(u, v))
			}
		}
	}
	ids := want.ExternalIDs()
	probes := append([]int64{-1}, ids...)
	if len(ids) > 0 {
		probes = append(probes, ids[len(ids)-1]+1)
	}
	for _, id := range probes {
		gv, gok := got.Lookup(id)
		wv, wok := want.Lookup(id)
		if gv != wv || gok != wok {
			t.Fatalf("Lookup(%d) = (%d, %v) on the overlay, (%d, %v) materialized", id, gv, gok, wv, wok)
		}
	}
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
		checkDegrees(t, "ReadBinary", g)

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
