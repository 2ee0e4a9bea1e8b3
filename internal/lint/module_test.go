package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadFixtureModule loads one mini-module under testdata/mod. Fixture
// modules carry their own go.mod so LoadModule resolves their internal
// import paths exactly like the real module's.
func loadFixtureModule(t *testing.T, name string) *Module {
	t.Helper()
	pkgs, err := LoadModule(filepath.Join("testdata", "mod", name))
	if err != nil {
		t.Fatalf("load fixture module %s: %v", name, err)
	}
	return NewModule(pkgs)
}

// runModuleFixture loads a testdata mini-module, runs one analyzer over
// it with the given config, and checks the diagnostics exactly match
// the fixture's `// want <check>` markers. Keys keep the last two path
// elements so same-named files in different packages (cmd/*/main.go)
// stay distinct. Returns the diagnostics for extra assertions.
func runModuleFixture(t *testing.T, check, name string, cfg *Config) []Diagnostic {
	t.Helper()
	m := loadFixtureModule(t, name)
	a := ByName(check)
	if a == nil {
		t.Fatalf("unknown check %q", check)
	}
	diags := m.Run([]*Analyzer{a}, cfg)

	wants := make(map[string]string)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, wantMarker) {
						continue
					}
					wantCheck := strings.TrimSpace(strings.TrimPrefix(c.Text, wantMarker))
					pos := pkg.Fset.Position(c.Pos())
					wants[fmt.Sprintf("%s:%d", shortFile(pos.Filename), pos.Line)] = wantCheck
				}
			}
		}
	}
	got := make(map[string][]string)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", shortFile(d.Pos.Filename), d.Pos.Line)
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
	return diags
}

func layeringFixtureConfig() *Config {
	return &Config{
		CommandPrefix: "example.com/layermod/cmd/",
		Forbid: []ForbidRule{{
			Name: "graph-below-core",
			Why:  "foundation layers must stay reusable",
			From: []string{"example.com/layermod/graph"},
			To:   []string{"example.com/layermod/core"},
		}},
		CommandAllow: []string{"example.com/layermod/mid", "example.com/layermod/serveish"},
		CommandRestrict: map[string][]string{
			"example.com/layermod/serveish": {"example.com/layermod/cmd/owner"},
		},
	}
}

func TestLayeringFixture(t *testing.T) {
	diags := runModuleFixture(t, "layering", "layering", layeringFixtureConfig())
	// The forbid violation is transitive: the chain must walk
	// graph -> mid -> core even though graph never imports core directly.
	wantChain := []string{
		"example.com/layermod/graph",
		"example.com/layermod/mid",
		"example.com/layermod/core",
	}
	foundChain := false
	for _, d := range diags {
		if reflect.DeepEqual(d.Chain, wantChain) {
			foundChain = true
			if !strings.Contains(d.Message, "graph -> ") {
				t.Errorf("chain missing from rendered message: %s", d.Message)
			}
		}
	}
	if !foundChain {
		t.Errorf("no diagnostic carries the full transitive chain %v; got %v", wantChain, diags)
	}
}

func TestAtomicmisuseFixture(t *testing.T) {
	diags := runModuleFixture(t, "atomicmisuse", "atomicmisuse", nil)
	// The cross-package finding must cite the atomic site in the other
	// package and suggest the matching typed atomic.
	var crossPkg bool
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "reader") {
			crossPkg = true
			if !strings.Contains(d.Message, "counter/counter.go") {
				t.Errorf("cross-package finding does not cite the atomic site: %s", d.Message)
			}
			if !strings.Contains(d.Message, "atomic.Int64") {
				t.Errorf("finding does not suggest the typed atomic: %s", d.Message)
			}
		}
	}
	if !crossPkg {
		t.Error("no cross-package atomicmisuse finding in the reader package")
	}
}

// TestGostmtFixture: every go statement outside the allowlist is a
// finding, joined and bounded or not, while the allowlisted pool
// package and the _test.go file stay silent.
func TestGostmtFixture(t *testing.T) {
	cfg := &Config{GoPackages: []string{"example.com/gomod/pool"}}
	diags := runModuleFixture(t, "gostmt", "gostmt", cfg)
	for _, d := range diags {
		if d.Scope != ScopeModule {
			t.Errorf("want module scope, got %v", d.Scope)
		}
	}
}

// TestGoroutineleakFixture: gostmt replaced goroutineleak, so every
// shape the old leak fixture flagged is still a finding, and so are the
// joins it accepted (WaitGroup, channel receive, select).
func TestGoroutineleakFixture(t *testing.T) {
	checkGostmtShapes(t, "BadFireAndForget", "BadDetachedProducer", "BadCtxWorker",
		"WaitGroupJoin", "ChannelJoin", "SelectJoin")
}

// TestUnboundedgoroutineFixture: gostmt replaced unboundedgoroutine, so
// the per-item and condition-loop spawns are still findings, and so are
// the bounded shapes it accepted (counter pool, semaphore).
func TestUnboundedgoroutineFixture(t *testing.T) {
	checkGostmtShapes(t, "perItem", "condLoop", "counterPool", "semaphore")
}

// checkGostmtShapes runs gostmt over the gostmt fixture and checks that
// each named function in its work package holds at least one finding.
func checkGostmtShapes(t *testing.T, funcs ...string) {
	t.Helper()
	m := loadFixtureModule(t, "gostmt")
	cfg := &Config{GoPackages: []string{"example.com/gomod/pool"}}
	diags := m.Run([]*Analyzer{ByName("gostmt")}, cfg)
	spans := make(map[string][2]int) // func name -> first and last line
	for _, pkg := range m.Pkgs {
		if pkg.Path != "example.com/gomod/work" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					spans[fd.Name.Name] = [2]int{
						pkg.Fset.Position(fd.Pos()).Line,
						pkg.Fset.Position(fd.End()).Line,
					}
				}
			}
		}
	}
	for _, name := range funcs {
		span, ok := spans[name]
		if !ok {
			t.Errorf("fixture has no function %s", name)
			continue
		}
		found := false
		for _, d := range diags {
			if d.Check == "gostmt" && filepath.Base(d.Pos.Filename) == "work.go" &&
				d.Pos.Line >= span[0] && d.Pos.Line <= span[1] {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want a gostmt finding, got none", name)
		}
	}
}

// TestModuleRunSingleLoad pins the engine's core property: running the
// whole analyzer suite — file- and module-scoped — costs exactly one
// LoadModule call. An analyzer that sneaks in its own load shows up as
// a second increment.
func TestModuleRunSingleLoad(t *testing.T) {
	before := LoadCount()
	pkgs, err := LoadModule(filepath.Join("testdata", "mod", "layering"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewModule(pkgs)
	_ = m.Run(All(), layeringFixtureConfig())
	_ = m.Run(All(), layeringFixtureConfig()) // re-running analyzers is load-free too
	if got := LoadCount() - before; got != 1 {
		t.Errorf("full analyzer suite cost %d loads, want exactly 1", got)
	}
}

// TestModuleChain exercises BFS shortest-chain selection directly.
func TestModuleChain(t *testing.T) {
	m := loadFixtureModule(t, "layering")
	chain := m.Chain("example.com/layermod/graph", func(p string) bool {
		return p == "example.com/layermod/core"
	})
	want := []string{
		"example.com/layermod/graph",
		"example.com/layermod/mid",
		"example.com/layermod/core",
	}
	if !reflect.DeepEqual(chain, want) {
		t.Errorf("Chain = %v, want %v", chain, want)
	}
	if c := m.Chain("example.com/layermod/core", func(p string) bool { return true }); c != nil {
		t.Errorf("leaf package should reach nothing, got %v", c)
	}
	// from itself never counts as a target: a chain is >= one import.
	self := m.Chain("example.com/layermod/graph", func(p string) bool {
		return p == "example.com/layermod/graph"
	})
	if self != nil {
		t.Errorf("self-chain should be nil, got %v", self)
	}
}

// TestModuleImportGraph checks the graph is module-internal only and
// sorted.
func TestModuleImportGraph(t *testing.T) {
	m := loadFixtureModule(t, "layering")
	deps := m.Imports("example.com/layermod/cmd/tool")
	want := []string{"example.com/layermod/graph", "example.com/layermod/mid", "example.com/layermod/serveish"}
	if !reflect.DeepEqual(deps, want) {
		t.Errorf("Imports(cmd/tool) = %v, want %v", deps, want)
	}
	// core's strings import never appears: stdlib edges are filtered.
	for _, p := range m.Paths() {
		for _, dep := range m.Imports(p) {
			if !strings.HasPrefix(dep, "example.com/") {
				t.Errorf("non-module edge %s -> %s leaked into the graph", p, dep)
			}
		}
	}
}
