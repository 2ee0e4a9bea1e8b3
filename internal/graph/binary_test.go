package graph

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTripDirected(t *testing.T) {
	g, err := FromEdges(true, [][2]int64{{10, 20}, {20, 30}, {30, 10}, {10, 30}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, back)
}

func TestBinaryRoundTripUndirected(t *testing.T) {
	g, err := FromEdges(false, [][2]int64{{1, 2}, {2, 3}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, back)
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.Directed() != b.Directed() || a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%v,%d,%d) vs (%v,%d,%d)",
			a.Directed(), a.NumVertices(), a.NumEdges(),
			b.Directed(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.ExternalID(VID(v)) != b.ExternalID(VID(v)) {
			t.Fatalf("external ID mismatch at %d", v)
		}
	}
	ea, eb := a.EdgeList(), b.EdgeList()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d: %v vs %v", i, ea[i], eb[i])
		}
	}
	// Lookups work on the restored graph.
	for v := 0; v < b.NumVertices(); v++ {
		got, ok := b.Lookup(b.ExternalID(VID(v)))
		if !ok || got != VID(v) {
			t.Fatalf("lookup broken at %d", v)
		}
	}
}

func TestReadBinaryGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadBinaryValidatesInvariants(t *testing.T) {
	g, err := FromEdges(true, [][2]int64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the edge count and re-encode through the public API by
	// tampering with the serialized graph's m field via a copy.
	bad := *g
	bad.m = 99
	var buf bytes.Buffer
	if err := WriteBinary(&buf, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); !errors.Is(err, ErrBadBinary) {
		t.Errorf("err = %v, want ErrBadBinary", err)
	}

	// Hand-made DTOs, each breaking one invariant of the directed path
	// 0->1->2 (IDs 10, 20, 30) or of its undirected counterpart.
	path := func() binaryGraph {
		return binaryGraph{
			Version: binaryVersion, Directed: true, IDs: []int64{10, 20, 30},
			OutOff: []int64{0, 1, 2, 2}, OutAdj: []VID{1, 2},
			InOff: []int64{0, 0, 1, 2}, InAdj: []VID{0, 1}, M: 2,
		}
	}
	cases := map[string]func(*binaryGraph){
		"in-offsets past the adjacency": func(d *binaryGraph) { d.InOff = []int64{0, 0, 9, 2} },
		"in-offsets not from zero":      func(d *binaryGraph) { d.InOff = []int64{1, 1, 1, 2} },
		"in-rows not transposed":        func(d *binaryGraph) { d.InAdj = []VID{1, 0} },
		"self-loop":                     func(d *binaryGraph) { d.OutAdj = []VID{0, 2} },
		"unsorted row": func(d *binaryGraph) {
			d.OutOff, d.OutAdj = []int64{0, 2, 2, 2}, []VID{2, 1}
			d.InOff, d.InAdj = []int64{0, 0, 1, 2}, []VID{0, 0}
		},
		"asymmetric undirected": func(d *binaryGraph) {
			d.Directed, d.InOff, d.InAdj, d.M = false, nil, nil, 1
		},
		"overflowing edge count": func(d *binaryGraph) {
			// The undirected edge 10-20, stored symmetrically, with an M
			// whose doubling wraps around to the arc count 2.
			d.Directed, d.InOff, d.InAdj, d.M = false, nil, nil, 1+math.MinInt64
			d.OutAdj = []VID{1, 0}
		},
	}
	for name, corrupt := range cases {
		dto := path()
		corrupt(&dto)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBinary(&buf); !errors.Is(err, ErrBadBinary) {
			t.Errorf("%s: err = %v, want ErrBadBinary", name, err)
		}
	}
	valid := path()
	var ok bytes.Buffer
	if err := gob.NewEncoder(&ok).Encode(valid); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&ok); err != nil {
		t.Errorf("valid hand-made graph rejected: %v", err)
	}
}

// Property: binary round trips are lossless for arbitrary graphs.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEdges(seed%2 == 0, randomEdges(rng, 25, 70))
		if err != nil {
			return true
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			return false
		}
		ea, eb := g.EdgeList(), back.EdgeList()
		for i := range ea {
			if ea[i] != eb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
