package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gpluscircles/internal/core"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/ncp"
	"gpluscircles/internal/par/partest"
)

// ncpGoldenFile pins the NCP curve bytes of the seed Google+ data set
// at the frozen golden suite configuration (the same one behind
// fig5_fig6.golden). The test renders the curve once per GOMAXPROCS
// in {1, 4, 8} and once against a pooled overlay view of the same
// graph: every rendering must match the checked-in bytes exactly —
// the tentpole determinism contract, enforced under -race in CI.
//
// Regenerate after an intended sweep change with
//
//	go test ./internal/core/ -run TestGoldenNCP -update-golden
const ncpGoldenFile = "ncp_gplus.golden"

// ncpGoldenOptions mirrors goldenOptions (golden_test.go); the flag is
// shared too — an external test package compiles into the same test
// binary, so redefining -update-golden would panic, hence flag.Lookup.
func ncpGoldenOptions() core.SuiteOptions {
	return core.SuiteOptions{Scale: 0.15, Seed: 5, DistanceSources: 4, ClusteringSamples: 50}
}

func updateGoldenRequested() bool {
	f := flag.Lookup("update-golden")
	return f != nil && f.Value.String() == "true"
}

func TestGoldenNCP(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	suite := core.NewSuite(ncpGoldenOptions())
	gp, err := suite.GPlus()
	if err != nil {
		t.Fatalf("gplus: %v", err)
	}

	render := func(g *graph.Graph, workers int) []byte {
		t.Helper()
		partest.GOMAXPROCS(t, workers)
		curve, err := ncp.Sweep(g, ncp.Options{Seeds: 16, MaxSize: 100, Seed: 1})
		if err != nil {
			t.Fatalf("sweep (workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := curve.WriteTable(&buf, fmt.Sprintf(
			"Network community profile — %s (%d PPR seeds, eps %g)",
			gp.Name, curve.Seeds, curve.Eps)); err != nil {
			t.Fatalf("render: %v", err)
		}
		return buf.Bytes()
	}

	got := render(gp.Graph, 1)
	path := filepath.Join("testdata", ncpGoldenFile)
	if updateGoldenRequested() {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("NCP bytes diverge from %s (len got %d, want %d); "+
			"if the change is intended, regenerate with -update-golden",
			path, len(got), len(want))
	}

	for _, workers := range []int{4, 8} {
		if b := render(gp.Graph, workers); !bytes.Equal(b, want) {
			t.Errorf("workers=%d: NCP bytes diverge from the workers=1 golden", workers)
		}
	}
	// A pooled overlay that has not been mutated is the identity view of
	// the parent graph; the sweep must render the exact same bytes.
	if b := render(&graph.NewOverlay(gp.Graph).Graph, 4); !bytes.Equal(b, want) {
		t.Error("pooled-overlay sweep bytes diverge from the parent-graph golden")
	}
}
