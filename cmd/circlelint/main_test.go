package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpluscircles/internal/lint"
)

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) != len(lint.All()) {
		t.Fatalf("default selection = %d analyzers, err %v", len(all), err)
	}
	two, err := selectAnalyzers("maporder, floateq")
	if err != nil || len(two) != 2 {
		t.Fatalf("subset selection = %v, err %v", two, err)
	}
	if _, err := selectAnalyzers("nosuchcheck"); err == nil {
		t.Error("unknown check accepted")
	}
	if _, err := selectAnalyzers(","); err == nil {
		t.Error("empty selection accepted")
	}
}

// TestRunOnViolatingModule builds a throwaway module with one violation
// of each class and checks the driver exits 1 with file:line diagnostics
// — the fixture-style behavior the Makefile's lint target relies on.
func TestRunOnViolatingModule(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module example.com/violating\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "bad.go"), `package violating

import (
	"fmt"
	"math/rand"
	"time"
)

func Bad(m map[string]int) {
	for k := range m {
		fmt.Println(k, rand.Intn(10), time.Now(), 0.1+rand.Float64() == 0.3)
	}
	go func() { fmt.Println("leaked") }()
}
`)

	out, err := os.CreateTemp(t.TempDir(), "lintout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code, runErr := run(out, []string{dir})
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, check := range []string{"maporder", "globalrng", "walltime", "floateq", "gostmt"} {
		if !strings.Contains(text, check+":") {
			t.Errorf("output missing %s diagnostic:\n%s", check, text)
		}
	}
	if !strings.Contains(text, "bad.go:") {
		t.Errorf("output missing file:line position:\n%s", text)
	}
}

// TestRunOnCleanModule checks exit 0 and empty output for a clean tree.
func TestRunOnCleanModule(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module example.com/clean\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "good.go"), `package clean

import (
	"fmt"
	"sort"
)

func Good(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}
`)

	out, err := os.CreateTemp(t.TempDir(), "lintout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code, runErr := run(out, []string{dir})
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if code != 0 {
		data, _ := os.ReadFile(out.Name())
		t.Fatalf("exit code = %d, want 0; output:\n%s", code, data)
	}
}

// TestRunJSONOutput checks -json emits a parseable array with the
// file/line/check fields CI annotators consume, and an empty array for
// a clean tree.
func TestRunJSONOutput(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module example.com/violating\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "bad.go"), `package violating

import "math/rand"

func Bad() int { return rand.Intn(10) }
`)

	out, err := os.CreateTemp(t.TempDir(), "lintout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code, runErr := run(out, []string{"-json", dir})
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatalf("-json output not parseable: %v\n%s", err, data)
	}
	if len(diags) == 0 {
		t.Fatal("-json output empty for a violating module")
	}
	d := diags[0]
	if d.File != "bad.go" || d.Line == 0 || d.Check != "globalrng" || d.Message == "" {
		t.Errorf("unexpected diagnostic %+v", d)
	}

	// Clean tree: still exit 0, body is an empty JSON array.
	clean := t.TempDir()
	writeFile(t, filepath.Join(clean, "go.mod"), "module example.com/clean\n\ngo 1.22\n")
	writeFile(t, filepath.Join(clean, "good.go"), "package clean\n")
	out2, err := os.CreateTemp(t.TempDir(), "lintout")
	if err != nil {
		t.Fatal(err)
	}
	defer out2.Close()
	code, runErr = run(out2, []string{"-json", clean})
	if runErr != nil || code != 0 {
		t.Fatalf("clean run: code %d, err %v", code, runErr)
	}
	data, err = os.ReadFile(out2.Name())
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "[]" {
		t.Errorf("clean -json output = %q, want []", data)
	}
}

// TestRunModuleScopedJSON: a module laid out like this one, where
// internal/graph imports internal/core against the default layer map,
// produces a layering finding whose JSON carries scope "module" and the
// offending import chain, while a file-scoped finding in the same tree
// carries scope "file" and no chain.
func TestRunModuleScopedJSON(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module gpluscircles\n\ngo 1.22\n")
	for _, sub := range []string{"core", "graph"} {
		if err := os.MkdirAll(filepath.Join(dir, "internal", sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, filepath.Join(dir, "internal", "core", "core.go"), `package core

func Orchestrate() int { return 1 }
`)
	writeFile(t, filepath.Join(dir, "internal", "graph", "graph.go"), `package graph

import (
	"math/rand"

	"gpluscircles/internal/core"
)

func Leak() int { return core.Orchestrate() + rand.Intn(10) }
`)

	out, err := os.CreateTemp(t.TempDir(), "lintout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code, runErr := run(out, []string{"-json", dir})
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatalf("-json output not parseable: %v\n%s", err, data)
	}
	var sawModule, sawFile bool
	for _, d := range diags {
		switch d.Check {
		case "layering":
			sawModule = true
			if d.Scope != "module" {
				t.Errorf("layering scope = %q, want module", d.Scope)
			}
			wantChain := []string{"gpluscircles/internal/graph", "gpluscircles/internal/core"}
			if len(d.Chain) != 2 || d.Chain[0] != wantChain[0] || d.Chain[1] != wantChain[1] {
				t.Errorf("layering chain = %v, want %v", d.Chain, wantChain)
			}
			if d.File != filepath.Join("internal", "graph", "graph.go") {
				t.Errorf("finding anchored at %s, want the importing file", d.File)
			}
		case "globalrng":
			sawFile = true
			if d.Scope != "file" {
				t.Errorf("globalrng scope = %q, want file", d.Scope)
			}
			if len(d.Chain) != 0 {
				t.Errorf("file-scoped finding carries a chain: %v", d.Chain)
			}
		}
	}
	if !sawModule {
		t.Errorf("no layering finding in:\n%s", data)
	}
	if !sawFile {
		t.Errorf("no globalrng finding in:\n%s", data)
	}
}

// TestRunLoadsModuleOnce pins the driver-level single-load property:
// one invocation with the full analyzer suite costs exactly one
// LoadModule call.
func TestRunLoadsModuleOnce(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module example.com/clean\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "good.go"), "package clean\n")
	out, err := os.CreateTemp(t.TempDir(), "lintout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	before := lint.LoadCount()
	code, runErr := run(out, []string{dir})
	if runErr != nil || code != 0 {
		t.Fatalf("run: code %d, err %v", code, runErr)
	}
	if got := lint.LoadCount() - before; got != 1 {
		t.Errorf("driver cost %d loads, want exactly 1", got)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
