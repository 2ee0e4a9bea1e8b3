package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func runWith(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() {
		os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout
	}()
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	os.Stdout = devNull
	flag.CommandLine = flag.NewFlagSet("synthgen", flag.ContinueOnError)
	os.Args = append([]string{"synthgen"}, args...)
	return run()
}

func TestRunSingleDataset(t *testing.T) {
	dir := t.TempDir()
	if err := runWith(t, "-scale", "0.1", "-dataset", "twitter", "-binary", "-out", dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"twitter.edges.txt", "twitter.cmty.txt", "twitter.bin"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}

func TestRunUnknownDataset(t *testing.T) {
	if err := runWith(t, "-dataset", "nope", "-out", t.TempDir()); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestScaleDatasetNeedsNoOptIn: the paper-scale pipeline graduated, so
// -dataset scale writes the data set without any -experiments flag.
func TestScaleDatasetNeedsNoOptIn(t *testing.T) {
	dir := t.TempDir()
	if err := runWith(t, "-dataset", "scale", "-vertices", "2000", "-out", dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"scale.edges.txt", "scale.cmty.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}
