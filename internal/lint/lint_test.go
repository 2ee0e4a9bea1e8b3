package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wantMarker tags a fixture line that expects a diagnostic:
//
//	expr // want <check>
const wantMarker = "// want "

// collectWants scans a fixture package for `// want <check>` markers and
// returns them keyed by "file:line".
func collectWants(pkg *Package) map[string]string {
	wants := make(map[string]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, wantMarker) {
					continue
				}
				check := strings.TrimSpace(strings.TrimPrefix(c.Text, wantMarker))
				pos := pkg.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)] = check
			}
		}
	}
	return wants
}

// runFixture loads one testdata package and checks the analyzer's
// diagnostics exactly match the want markers.
func runFixture(t *testing.T, check, dir, importPath string) {
	t.Helper()
	pkg, err := LoadPackageDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	a := ByName(check)
	if a == nil {
		t.Fatalf("unknown check %q", check)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{a})

	wants := collectWants(pkg)
	got := make(map[string][]string)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		got[key] = append(got[key], d.Check)
	}
	for key, wantCheck := range wants {
		found := false
		for _, c := range got[key] {
			if c == wantCheck {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want %s diagnostic, got none", key, wantCheck)
		}
	}
	for key, checks := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected %v diagnostic(s)", key, checks)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("diagnostic: %s", d)
		}
	}
}

func TestMaporderFixture(t *testing.T)  { runFixture(t, "maporder", "maporder", "fixture/maporder") }
func TestGlobalrngFixture(t *testing.T) { runFixture(t, "globalrng", "globalrng", "fixture/globalrng") }
func TestWalltimeFixture(t *testing.T)  { runFixture(t, "walltime", "walltime", "fixture/walltime") }
func TestFloateqFixture(t *testing.T)   { runFixture(t, "floateq", "floateq", "fixture/floateq") }
func TestCtxfirstFixture(t *testing.T)  { runFixture(t, "ctxfirst", "ctxfirst", "fixture/ctxfirst") }

// TestFloateqStatsAllowlist checks the approved-tolerance-helper carveout:
// under an internal/stats import path the allowlisted helper is exempt
// but other functions are still flagged.
func TestFloateqStatsAllowlist(t *testing.T) {
	runFixture(t, "floateq", "floateq_stats", "fixture/internal/stats")
}

// TestIgnoreDirectiveMalformed checks that a reason-less or unknown
// directive is itself reported instead of silently suppressing.
func TestIgnoreDirectiveMalformed(t *testing.T) {
	pkg, err := LoadPackageDir(filepath.Join("testdata", "src", "ignore"), "fixture/ignore")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := Run([]*Package{pkg}, All())
	var gotChecks []string
	for _, d := range diags {
		gotChecks = append(gotChecks, fmt.Sprintf("%s:%d", d.Check, d.Pos.Line))
	}
	sort.Strings(gotChecks)
	// The file has: a reason-less directive (reported, and the walltime
	// finding it failed to suppress also reported), an unknown-check
	// directive (reported), and one well-formed suppression (silent).
	wantSubstrings := []string{"ignore:", "walltime:"}
	for _, want := range wantSubstrings {
		found := false
		for _, g := range gotChecks {
			if strings.HasPrefix(g, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("want a %q diagnostic, got %v", want, gotChecks)
		}
	}
	// Two malformed directives -> two "ignore" diagnostics.
	ignores := 0
	for _, g := range gotChecks {
		if strings.HasPrefix(g, "ignore:") {
			ignores++
		}
	}
	if ignores != 2 {
		t.Errorf("want 2 ignore diagnostics, got %d (%v)", ignores, gotChecks)
	}
	// The well-formed suppression must actually suppress: exactly one
	// walltime finding survives out of the two in the fixture.
	walltimes := 0
	for _, g := range gotChecks {
		if strings.HasPrefix(g, "walltime:") {
			walltimes++
		}
	}
	if walltimes != 1 {
		t.Errorf("want exactly 1 surviving walltime diagnostic, got %d (%v)", walltimes, gotChecks)
	}
}

// TestRepoIsLintClean runs the full analyzer suite — file-scoped and
// module-scoped, against the repo's own layer map — over the whole
// module, the same gate as `make lint`, and demands zero findings. Any
// new nondeterminism pattern or architecture violation must be fixed
// or carry a reasoned //lint:ignore before it can land.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check in -short mode")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	analyzers := All()
	for _, name := range []string{"maporder", "globalrng", "walltime", "floateq", "ctxfirst", "layering", "atomicmisuse", "gostmt"} {
		if ByName(name) == nil {
			t.Fatalf("analyzer %s is missing from the gate", name)
		}
	}
	for _, d := range NewModule(pkgs).Run(analyzers, DefaultConfig()) {
		t.Errorf("%s", d)
	}
}

// TestDiagnosticsSorted checks Run's output ordering is deterministic.
func TestDiagnosticsSorted(t *testing.T) {
	pkg, err := LoadPackageDir(filepath.Join("testdata", "src", "maporder"), "fixture/maporder")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, All())
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column <= b.Pos.Column
	}) {
		t.Errorf("diagnostics not sorted: %v", diags)
	}
}
