package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// updateGolden regenerates the checked-in report bytes:
//
//	go test ./internal/core/ -run 'TestGoldenFig5Fig6|TestGoldenFig3Table2' -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden report bytes")

// goldenOptions freezes the suite configuration behind the golden file.
// Changing any of these values changes the report bytes and requires a
// deliberate -update-golden regeneration.
func goldenOptions() SuiteOptions {
	return SuiteOptions{Scale: 0.15, Seed: 5, DistanceSources: 4, ClusteringSamples: 50}
}

const goldenFile = "fig5_fig6.golden"

// extractSection returns one "=== title [id] ===" section of a full
// report, header included, body ending where the next section begins.
func extractSection(t *testing.T, report []byte, id string) []byte {
	t.Helper()
	marker := []byte(fmt.Sprintf("[%s] ===\n", id))
	at := bytes.Index(report, marker)
	if at < 0 {
		t.Fatalf("section %s missing from report", id)
	}
	start := bytes.LastIndex(report[:at], []byte("\n=== "))
	if start < 0 {
		t.Fatalf("section %s has no header", id)
	}
	rest := report[at+len(marker):]
	end := bytes.Index(rest, []byte("\n=== "))
	if end < 0 {
		end = len(rest)
	}
	return report[start : at+len(marker)+end]
}

// goldenReport runs the parallel report at goldenOptions once per test
// binary; every golden test slices its sections out of the same bytes.
var goldenReport = sync.OnceValues(func() ([]byte, error) {
	var full bytes.Buffer
	err := NewSuite(goldenOptions()).RunAllParallelCtx(context.Background(), &full, 8)
	return full.Bytes(), err
})

// checkGoldenSections compares the named report sections against a
// checked-in golden file on both engine paths, in the order given: the
// parallel report must reproduce the file exactly, and the serial
// single-experiment path on a fresh suite must agree with it byte for
// byte.
func checkGoldenSections(t *testing.T, file string, ids ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("full report run in -short mode")
	}
	full, err := goldenReport()
	if err != nil {
		t.Fatalf("RunAllParallelCtx: %v", err)
	}
	var got []byte
	for _, id := range ids {
		got = append(got, extractSection(t, full, id)...)
	}

	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("%v bytes diverge from %s (len got %d, want %d); "+
			"if the change is intended, regenerate with -update-golden",
			ids, path, len(got), len(want))
	}

	// The serial path must render the identical sections: header from
	// the registry, body from RunExperimentCtx on a fresh suite.
	serialSuite := NewSuite(goldenOptions())
	var serial bytes.Buffer
	for _, id := range ids {
		i := slices.IndexFunc(Experiments(), func(e Experiment) bool { return e.ID == id })
		if i < 0 {
			t.Fatalf("experiment %s not registered", id)
		}
		e := Experiments()[i]
		fmt.Fprintf(&serial, "\n=== %s [%s] ===\n\n", e.Title, e.ID)
		if err := serialSuite.RunExperimentCtx(context.Background(), e, &serial); err != nil {
			t.Fatalf("RunExperimentCtx(%s): %v", e.ID, err)
		}
	}
	if !bytes.Equal(serial.Bytes(), want) {
		t.Fatalf("serial %v bytes diverge from the golden parallel sections (len got %d, want %d)",
			ids, serial.Len(), len(want))
	}
}

// TestGoldenFig5Fig6 pins the bytes of the paper's two headline score
// comparisons (Fig. 5, Fig. 6) at a frozen seed. Any unintended change
// to scoring, sampling order, or report formatting shows up here as a
// diff against the checked-in file.
func TestGoldenFig5Fig6(t *testing.T) {
	checkGoldenSections(t, goldenFile, "fig5", "fig6")
}

// TestGoldenFig3Table2 pins the degree-fit bytes: the CSN parameters
// (alpha, mu, sigma, lambda), the KS distances and likelihood-ratio
// verdicts of Fig. 3, the Table II verdict column and the scorecard
// claims built on them. Fast fitting kernels must leave these bytes
// untouched.
func TestGoldenFig3Table2(t *testing.T) {
	checkGoldenSections(t, "fig3_table2.golden", "table2", "fig3", "scorecard")
}
