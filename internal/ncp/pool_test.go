// The race detector makes sync.Pool drop items at random, so these
// checks of the pooled workspaces run only in normal builds.

//go:build !race

package ncp

import (
	"testing"

	"gpluscircles/internal/graph"
)

// A warmed Sweep takes its push and sweep-cut workspaces from the pool,
// so its allocation count must not grow with the vertex count. On a
// clique at this eps every vertex is touched, queued and pushed, so a
// fresh workspace would grow its lists about log2(n) times each; MaxSize
// 1 keeps the per-seed allocations (the sweep order and one
// conductance) the same on both graphs.
func TestSweepAllocsIndependentOfN(t *testing.T) {
	opts := Options{Seeds: 4, Eps: 1e-5, MaxSize: 1, Workers: 1, Seed: 3}
	small, large := cliqueGraph(t, 16), cliqueGraph(t, 256)
	for _, g := range []*graph.Graph{large, small} {
		if _, err := Sweep(g, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(g *graph.Graph) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Sweep(g, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); b > a {
		t.Errorf("warmed Sweep allocates %.1f times on a 16-clique but %.1f on a 256-clique", a, b)
	}
}
