package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBenchFile writes a minimal test2json stream containing the given
// raw output fragments, mimicking how test2json splits benchmark result
// lines across events.
func writeBenchFile(t *testing.T, name string, outputs ...string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"gpluscircles"}` + "\n")
	for _, out := range outputs {
		b.WriteString(`{"Action":"output","Package":"gpluscircles","Output":"` + out + `"}` + "\n")
	}
	b.WriteString(`{"Action":"pass","Package":"gpluscircles"}` + "\n")
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchFileReassemblesSplitLines(t *testing.T) {
	path := writeBenchFile(t, "bench.json",
		`BenchmarkFoo           \t`, // name flushed alone, as test2json does
		`       2\t 1000 ns/op\t  512 B/op\t    8 allocs/op\n`,
		`BenchmarkBar \t 4\t 2500.5 ns/op\n`, // no -benchmem columns
	)
	res, _, err := parseBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	foo, ok := res["BenchmarkFoo"]
	if !ok {
		t.Fatal("BenchmarkFoo not parsed")
	}
	if foo.N != 2 || foo.NsPerOp != 1000 || foo.BPerOp != 512 || foo.AllocsOp != 8 {
		t.Errorf("BenchmarkFoo parsed as %+v", foo)
	}
	bar, ok := res["BenchmarkBar"]
	if !ok {
		t.Fatal("BenchmarkBar not parsed")
	}
	if bar.NsPerOp != 2500.5 || bar.BPerOp != -1 || bar.AllocsOp != -1 {
		t.Errorf("BenchmarkBar parsed as %+v", bar)
	}
}

// TestRunCompareUsesMedians: a -count 5 record is compared on the
// median of each metric, so an outlier in the middle of the record and
// another in the last sample both stay out of the deltas and the
// ratchet. Keeping only the last sample would report +4900% ns/op here.
func TestRunCompareUsesMedians(t *testing.T) {
	oldPath := writeBenchFile(t, "old.json",
		`BenchmarkFoo \t 10\t 100 ns/op\t 64 B/op\t 2 allocs/op\n`,
	)
	newPath := writeBenchFile(t, "new.json",
		`BenchmarkFoo \t 10\t 100 ns/op\t 64 B/op\t 2 allocs/op\n`,
		`BenchmarkFoo \t 10\t 102 ns/op\t 64 B/op\t 2 allocs/op\n`,
		`BenchmarkFoo \t 10\t 900 ns/op\t 4096 B/op\t 50 allocs/op\n`,
		`BenchmarkFoo \t 10\t 101 ns/op\t 64 B/op\t 2 allocs/op\n`,
		`BenchmarkFoo \t 10\t 5000 ns/op\t 8192 B/op\t 99 allocs/op\n`,
	)
	res, _, err := parseBenchFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if foo := res["BenchmarkFoo"]; foo.NsPerOp != 102 || foo.BPerOp != 64 || foo.AllocsOp != 2 {
		t.Errorf("BenchmarkFoo medians = %+v, want 102 ns/op, 64 B/op, 2 allocs/op", foo)
	}
	var sb strings.Builder
	if err := runCompare(&sb, oldPath, newPath, 10); err != nil {
		t.Fatalf("median within 10%% of the old run still breached: %v\n%s", err, sb.String())
	}
	if got := sb.String(); !strings.Contains(got, "+2.0%") || !strings.Contains(got, "+0.0%") {
		t.Errorf("compare output does not show the median deltas:\n%s", got)
	}

	// An even count takes the mean of the two middle samples.
	evenPath := writeBenchFile(t, "even.json",
		`BenchmarkFoo \t 10\t 100 ns/op\n`,
		`BenchmarkFoo \t 10\t 110 ns/op\n`,
		`BenchmarkFoo \t 10\t 120 ns/op\n`,
		`BenchmarkFoo \t 10\t 9000 ns/op\n`,
	)
	res, _, err = parseBenchFile(evenPath)
	if err != nil {
		t.Fatal(err)
	}
	if foo := res["BenchmarkFoo"]; foo.NsPerOp != 115 || foo.BPerOp != -1 {
		t.Errorf("even-count medians = %+v, want 115 ns/op and no B/op", foo)
	}
}

func TestParseBenchFileRejectsNonJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := parseBenchFile(path); err == nil {
		t.Error("expected an error for a non-JSON file")
	}
}

func TestRunCompareReportsDeltas(t *testing.T) {
	oldPath := writeBenchFile(t, "old.json",
		`BenchmarkSame \t 1\t 1000 ns/op\t 1000 B/op\t 10 allocs/op\n`,
		`BenchmarkGone \t 1\t 5 ns/op\n`,
	)
	newPath := writeBenchFile(t, "new.json",
		`BenchmarkSame \t 1\t 500 ns/op\t 100 B/op\t 1 allocs/op\n`,
		`BenchmarkNew \t 1\t 7 ns/op\n`,
	)
	var sb strings.Builder
	if err := runCompare(&sb, oldPath, newPath, 0); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"BenchmarkSame", "-50.0%", "-90.0%",
		"BenchmarkGone", "only in " + oldPath,
		"BenchmarkNew", "only in " + newPath,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output missing %q:\n%s", want, got)
		}
	}
}

func TestParseBenchFileExtractsEnv(t *testing.T) {
	path := writeBenchFile(t, "bench.json",
		`benchenv: cpus=8 gomaxprocs=8 goos=linux goarch=amd64\n`,
		`BenchmarkFoo \t 1\t 10 ns/op\n`,
	)
	res, env, err := parseBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if env != "cpus=8 gomaxprocs=8 goos=linux goarch=amd64" {
		t.Errorf("env parsed as %q", env)
	}
	if _, ok := res["BenchmarkFoo"]; !ok {
		t.Error("benchmark line after benchenv not parsed")
	}
}

func TestRunCompareSummaryAndEnv(t *testing.T) {
	oldPath := writeBenchFile(t, "old.json",
		`benchenv: cpus=4 gomaxprocs=4\n`,
		`BenchmarkSame \t 1\t 1000 ns/op\n`,
		`BenchmarkGone \t 1\t 5 ns/op\n`,
	)
	newPath := writeBenchFile(t, "new.json",
		`benchenv: cpus=16 gomaxprocs=16\n`,
		`BenchmarkSame \t 1\t 900 ns/op\n`,
		`BenchmarkNew \t 1\t 7 ns/op\n`,
		`BenchmarkNew2 \t 1\t 9 ns/op\n`,
	)
	var sb strings.Builder
	if err := runCompare(&sb, oldPath, newPath, 0); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"old env: cpus=4 gomaxprocs=4",
		"new env: cpus=16 gomaxprocs=16",
		"runner environments differ",
		"1 compared, 1 only in " + oldPath + ", 2 only in " + newPath,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output missing %q:\n%s", want, got)
		}
	}
}

func TestRunCompareDisjointBenchSets(t *testing.T) {
	// No shared benchmark at all: the table header must be suppressed
	// and the footer must make the empty intersection explicit.
	oldPath := writeBenchFile(t, "old.json", `BenchmarkOnlyOld \t 1\t 5 ns/op\n`)
	newPath := writeBenchFile(t, "new.json", `BenchmarkOnlyNew \t 1\t 7 ns/op\n`)
	var sb strings.Builder
	if err := runCompare(&sb, oldPath, newPath, 0); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if strings.Contains(got, "ns/op") {
		t.Errorf("header printed with no common benchmarks:\n%s", got)
	}
	for _, want := range []string{
		"BenchmarkOnlyOld",
		"BenchmarkOnlyNew",
		"0 compared, 1 only in " + oldPath + ", 1 only in " + newPath,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output missing %q:\n%s", want, got)
		}
	}
}

func TestRunCompareAgainstRecordedBench(t *testing.T) {
	// The checked-in baseline must stay parseable: the compare mode's
	// whole point is diffing against it.
	baseline := filepath.Join("..", "..", "BENCH_2026-08-06.json")
	if _, err := os.Stat(baseline); err != nil {
		t.Skip("baseline bench file not present")
	}
	res, _, err := parseBenchFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res["BenchmarkEmpiricalExpectation"]; !ok {
		t.Error("baseline missing BenchmarkEmpiricalExpectation")
	}
	var sb strings.Builder
	if err := runCompare(&sb, baseline, baseline, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "+0.0%") {
		t.Error("self-compare should report zero deltas")
	}
}

func TestRunCompareUsageError(t *testing.T) {
	if err := runWith(t, "compare", "only-one.json"); err == nil {
		t.Error("expected usage error for missing operand")
	}
}

// TestRunCompareFailOver: the ratchet fails the run when a shared
// benchmark's ns/op regresses beyond the threshold, names the
// benchmark, and ignores improvements and missing counterparts.
func TestRunCompareFailOver(t *testing.T) {
	oldPath := writeBenchFile(t, "old.json",
		`BenchmarkSlower \t 1\t 1000 ns/op\n`,
		`BenchmarkFaster \t 1\t 1000 ns/op\n`,
		`BenchmarkGone \t 1\t 5 ns/op\n`,
	)
	newPath := writeBenchFile(t, "new.json",
		`BenchmarkSlower \t 1\t 1200 ns/op\n`, // +20%
		`BenchmarkFaster \t 1\t 400 ns/op\n`,  // -60%
	)
	var sb strings.Builder
	err := runCompare(&sb, oldPath, newPath, 10)
	if err == nil {
		t.Fatal("20% regression passed a 10% ratchet")
	}
	if !strings.Contains(err.Error(), "BenchmarkSlower") || strings.Contains(err.Error(), "BenchmarkFaster") {
		t.Errorf("ratchet error should name only the regressed benchmark: %v", err)
	}
	// A looser threshold tolerates the same delta.
	sb.Reset()
	if err := runCompare(&sb, oldPath, newPath, 25); err != nil {
		t.Errorf("25%% ratchet should tolerate a 20%% regression: %v", err)
	}
	if !strings.Contains(sb.String(), "no shared benchmark regressed") {
		t.Errorf("passing ratchet should say so:\n%s", sb.String())
	}
}

// TestRunCompareFailOverMemory: the ratchet also covers B/op and
// allocs/op — a memory regression beyond the threshold fails even when
// ns/op improved, and a 0 -> nonzero allocation count breaches at any
// threshold (a zero-allocation guarantee has no relative scale).
func TestRunCompareFailOverMemory(t *testing.T) {
	oldPath := writeBenchFile(t, "old.json",
		`BenchmarkMem \t 1\t 1000 ns/op\t 1000 B/op\t 10 allocs/op\n`,
		`BenchmarkZeroAlloc \t 1\t 100 ns/op\t 0 B/op\t 0 allocs/op\n`,
		`BenchmarkNoMem \t 1\t 100 ns/op\n`,
	)
	newPath := writeBenchFile(t, "new.json",
		`BenchmarkMem \t 1\t 500 ns/op\t 1500 B/op\t 10 allocs/op\n`, // ns/op -50%, B/op +50%
		`BenchmarkZeroAlloc \t 1\t 100 ns/op\t 16 B/op\t 1 allocs/op\n`,
		`BenchmarkNoMem \t 1\t 100 ns/op\t 4096 B/op\t 64 allocs/op\n`, // old side has no -benchmem columns
	)
	var sb strings.Builder
	err := runCompare(&sb, oldPath, newPath, 10)
	if err == nil {
		t.Fatal("memory regressions passed a 10% ratchet")
	}
	for _, want := range []string{"BenchmarkMem B/op +50.0%", "BenchmarkZeroAlloc B/op 0 -> 16", "BenchmarkZeroAlloc allocs/op 0 -> 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ratchet error missing %q: %v", want, err)
		}
	}
	if strings.Contains(err.Error(), "BenchmarkNoMem") {
		t.Errorf("-1 sentinel (no -benchmem side) must not breach: %v", err)
	}
	// The 0 -> nonzero breach survives any percentage threshold.
	sb.Reset()
	err = runCompare(&sb, oldPath, newPath, 1000)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkZeroAlloc") {
		t.Errorf("0 -> nonzero allocation must breach a 1000%% ratchet: %v", err)
	}
	if err != nil && strings.Contains(err.Error(), "BenchmarkMem") {
		t.Errorf("+50%% B/op must pass a 1000%% ratchet: %v", err)
	}
}

// TestRunCompareFailOverEnvMismatch: a breach measured across different
// runner environments is advisory, not fatal.
func TestRunCompareFailOverEnvMismatch(t *testing.T) {
	oldPath := writeBenchFile(t, "old.json",
		`benchenv: cpus=4 gomaxprocs=4\n`,
		`BenchmarkSlower \t 1\t 1000 ns/op\n`,
	)
	newPath := writeBenchFile(t, "new.json",
		`benchenv: cpus=16 gomaxprocs=16\n`,
		`BenchmarkSlower \t 1\t 2000 ns/op\n`,
	)
	var sb strings.Builder
	if err := runCompare(&sb, oldPath, newPath, 10); err != nil {
		t.Fatalf("env-mismatched regression must not fail the run: %v", err)
	}
	got := sb.String()
	if !strings.Contains(got, "advisory:") || !strings.Contains(got, "BenchmarkSlower") {
		t.Errorf("advisory note missing or anonymous:\n%s", got)
	}
}

// TestRunCompareFailOverFlag wires the flag end-to-end through the
// compare dispatch.
func TestRunCompareFailOverFlag(t *testing.T) {
	oldPath := writeBenchFile(t, "old.json", `BenchmarkX \t 1\t 100 ns/op\n`)
	newPath := writeBenchFile(t, "new.json", `BenchmarkX \t 1\t 300 ns/op\n`)
	if err := runWith(t, "compare", "-fail-over=50", oldPath, newPath); err == nil {
		t.Error("flag-armed ratchet did not fail a 200% regression")
	}
	if err := runWith(t, "compare", oldPath, newPath); err != nil {
		t.Errorf("unarmed compare should report only: %v", err)
	}
}
