package graph

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// arcsOf ranks the endpoints of pairs in ids, which must hold them all.
func arcsOf(t *testing.T, ids []int64, pairs [][2]int64) (from, to []VID) {
	t.Helper()
	for _, p := range pairs {
		u, uok := slices.BinarySearch(ids, p[0])
		v, vok := slices.BinarySearch(ids, p[1])
		if !uok || !vok {
			t.Fatalf("pair %v outside the ids table", p)
		}
		from, to = append(from, VID(u)), append(to, VID(v))
	}
	return from, to
}

// requireExactCapacity fails unless g's adjacency arrays hold no slack.
func requireExactCapacity(t *testing.T, what string, g *Graph) {
	t.Helper()
	if cap(g.outAdj) != len(g.outAdj) || cap(g.inAdj) != len(g.inAdj) {
		t.Fatalf("%s: out-adjacency %d of %d, in-adjacency %d of %d slots used",
			what, len(g.outAdj), cap(g.outAdj), len(g.inAdj), cap(g.inAdj))
	}
}

// TestFromArcsMatchesOracle builds the sparse-ID cases and random arc
// soup through FromArcs, every ID registered as a vertex, and requires
// the oracle's graph with no spare adjacency capacity.
func TestFromArcsMatchesOracle(t *testing.T) {
	type arcCase struct {
		name  string
		ids   []int64
		pairs [][2]int64
	}
	var cases []arcCase
	for _, tc := range sparseIDCases {
		ids := slices.Clone(tc.vertices)
		for _, p := range tc.pairs {
			ids = append(ids, p[0], p[1])
		}
		if len(ids) == 0 {
			continue // TestFromArcsErrors covers the empty graph
		}
		slices.Sort(ids)
		cases = append(cases, arcCase{tc.name, slices.Compact(ids), tc.pairs})
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 40; i++ {
		// Random IDs, extremes included, and arcs over a subset of them,
		// so that isolated vertices, self-loops and duplicates all occur.
		ids := []int64{rng.Int63() - rng.Int63()}
		if i%4 == 0 {
			ids = append(ids, math.MinInt64, math.MaxInt64)
		}
		for len(ids) < 2+rng.Intn(30) {
			ids = append(ids, rng.Int63n(200)-100)
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		pairs := make([][2]int64, rng.Intn(4*len(ids)))
		for k := range pairs {
			pairs[k] = [2]int64{ids[rng.Intn(len(ids)/2+1)], ids[rng.Intn(len(ids)/2+1)]}
		}
		cases = append(cases, arcCase{"random", ids, pairs})
	}
	for _, tc := range cases {
		for _, directed := range []bool{false, true} {
			from, to := arcsOf(t, tc.ids, tc.pairs)
			got, err := FromArcs(directed, slices.Clone(tc.ids), from, to)
			if err != nil {
				t.Fatalf("%s directed=%v: %v", tc.name, directed, err)
			}
			want := mustOracle(t, directed, tc.ids, tc.pairs)
			if g, w := edgeFingerprint(got), edgeFingerprint(want); g != w {
				t.Fatalf("%s directed=%v: FromArcs diverged from the oracle:\n got %s\nwant %s", tc.name, directed, g, w)
			}
			requireExactCapacity(t, tc.name, got)
		}
	}
}

// TestFromArcsErrors covers every rejected input: no vertices, IDs not
// strictly ascending, endpoints outside the vertex range and arc slices
// of different lengths.
func TestFromArcsErrors(t *testing.T) {
	cases := []struct {
		name     string
		ids      []int64
		from, to []VID
	}{
		{"no vertices", nil, nil, nil},
		{"no vertices with arcs", []int64{}, []VID{0}, []VID{0}},
		{"repeated ID", []int64{1, 2, 2, 3}, nil, nil},
		{"descending IDs", []int64{5, 4}, nil, nil},
		{"descending at the extremes", []int64{math.MaxInt64, math.MinInt64}, nil, nil},
		{"target past the end", []int64{1, 2, 3}, []VID{0}, []VID{3}},
		{"source past the end", []int64{1, 2, 3}, []VID{0, 3}, []VID{1, 1}},
		{"negative target", []int64{1, 2}, []VID{1}, []VID{-1}},
		{"negative source", []int64{1, 2}, []VID{math.MinInt32}, []VID{0}},
		{"more sources", []int64{1, 2}, []VID{0, 1}, []VID{1}},
		{"more targets", []int64{1, 2}, []VID{0}, []VID{1, 0}},
	}
	for _, tc := range cases {
		for _, directed := range []bool{false, true} {
			g, err := FromArcs(directed, tc.ids, tc.from, tc.to)
			if err == nil {
				t.Fatalf("%s directed=%v: accepted, built %d vertices", tc.name, directed, g.NumVertices())
			}
			if empty := len(tc.ids) == 0; empty != errors.Is(err, ErrEmptyGraph) {
				t.Fatalf("%s directed=%v: err %v; ErrEmptyGraph expected only without vertices", tc.name, directed, err)
			}
		}
	}
}

// TestLookupMatchesBinarySearch checks Lookup's offset path on
// contiguous ID tables and its search path on gapped ones against
// slices.BinarySearch, at both ends of int64 and with absent IDs below,
// between and above the table.
func TestLookupMatchesBinarySearch(t *testing.T) {
	run := func(lo int64, n int) []int64 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = lo + int64(i)
		}
		return ids
	}
	tables := [][]int64{
		run(0, 10), run(-5, 10), run(math.MinInt64, 10), run(math.MaxInt64-9, 10),
		run(math.MinInt64, 1), run(math.MaxInt64, 1), run(42, 1),
		{0, 2, 3, 4}, {-3, -2, 0}, {math.MinInt64, 0, math.MaxInt64},
		{math.MinInt64, math.MaxInt64}, {math.MinInt64, math.MinInt64 + 1, math.MaxInt64},
		{math.MaxInt64 - 10, math.MaxInt64 - 8, math.MaxInt64 - 7, math.MaxInt64},
		{-1 << 40, 7, 1 << 40},
	}
	for _, ids := range tables {
		g, err := FromArcs(false, ids, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		probes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		for _, id := range ids {
			// Wrapping at the int64 ends only adds more probes.
			probes = append(probes, id-2, id-1, id, id+1, id+2)
		}
		for _, id := range probes {
			i, ok := slices.BinarySearch(ids, id)
			got, gotOK := g.Lookup(id)
			if gotOK != ok || (ok && got != VID(i)) {
				t.Fatalf("ids %v: Lookup(%d) = (%d, %v), binary search (%d, %v)", ids, id, got, gotOK, i, ok)
			}
		}
	}
	if _, ok := (&Graph{}).Lookup(0); ok {
		t.Fatal("Lookup found an ID in the empty graph")
	}
}
