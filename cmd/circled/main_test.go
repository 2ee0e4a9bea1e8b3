package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpluscircles/internal/core"
	"gpluscircles/internal/obs"
)

// TestWarmSuiteVerbose: -warm -v reports the five data sets in registry
// order once they are all generated, whatever order the concurrent
// generations finished in; without -v it prints nothing.
func TestWarmSuiteVerbose(t *testing.T) {
	var want strings.Builder
	for _, name := range core.DatasetNames() {
		want.WriteString("circled: warmed " + name + "\n")
	}
	for _, verbose := range []bool{true, false} {
		suite := core.NewSuite(core.SuiteOptions{Scale: 0.1, Seed: 1})
		var out bytes.Buffer
		if err := warmSuite(&out, suite, verbose); err != nil {
			t.Fatal(err)
		}
		if verbose && out.String() != want.String() {
			t.Errorf("-v output:\n%s\nwant:\n%s", out.String(), want.String())
		}
		if !verbose && out.Len() != 0 {
			t.Errorf("quiet output: %q", out.String())
		}
	}
}

func TestRunMeta(t *testing.T) {
	rec := obs.NewRecorder()
	meta := runMeta(rec, 0.5, 7, 4, 32, nil)
	if meta.Tool != "circled" || meta.Seed != 7 {
		t.Errorf("meta = %+v", meta)
	}
	if meta.Options["scale"] != "0.5" || meta.Options["workers"] != "4" || meta.Options["queue"] != "32" {
		t.Errorf("options = %v", meta.Options)
	}
	if meta.Partial || meta.Err != "" {
		t.Errorf("clean run marked partial: %+v", meta)
	}

	failed := runMeta(rec, 1, 1, 0, 64, errors.New("drain timed out"))
	if !failed.Partial || failed.Err != "drain timed out" {
		t.Errorf("failed run not marked partial: %+v", failed)
	}
}

func TestWriteRunManifestRoundTrip(t *testing.T) {
	rec := obs.NewRecorder()
	rec.Counter("serve.requests").Add(3)
	path := filepath.Join(t.TempDir(), "run.manifest.jsonl")
	if err := writeRunManifest(path, rec, runMeta(rec, 1, 1, 2, 64, nil)); err != nil {
		t.Fatalf("writeRunManifest: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := obs.ReadManifest(f)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Meta.Tool != "circled" {
		t.Errorf("tool = %q", m.Meta.Tool)
	}
	if m.Metrics.Counters["serve.requests"] != 3 {
		t.Errorf("metrics not flushed: %+v", m.Metrics.Counters)
	}
}
