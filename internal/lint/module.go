package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Module is the whole-module view the module-scoped analyzers run over:
// every loaded package and the module-internal import graph, both
// derived from one LoadModule call so a run parses and type-checks the
// source exactly once.
type Module struct {
	// Pkgs holds every loaded package in load (dependency) order.
	Pkgs []*Package

	byPath  map[string]*Package
	imports map[string][]string // module-internal direct imports, sorted
}

// NewModule indexes loaded packages into the module view. The import
// graph comes from the shared type information (only edges between the
// given packages are kept).
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:    pkgs,
		byPath:  make(map[string]*Package, len(pkgs)),
		imports: make(map[string][]string, len(pkgs)),
	}
	for _, pkg := range pkgs {
		m.byPath[pkg.Path] = pkg
	}
	for _, pkg := range pkgs {
		var deps []string
		if pkg.Types != nil {
			for _, imp := range pkg.Types.Imports() {
				if _, ok := m.byPath[imp.Path()]; ok {
					deps = append(deps, imp.Path())
				}
			}
		}
		sort.Strings(deps)
		m.imports[pkg.Path] = deps
	}
	return m
}

// Imports returns a package's direct module-internal imports, sorted.
func (m *Module) Imports(path string) []string { return m.imports[path] }

// Paths returns every package path in the module, sorted, so analyzers
// iterate deterministically regardless of load order.
func (m *Module) Paths() []string {
	paths := make([]string, 0, len(m.byPath))
	for p := range m.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Chain returns the shortest module-internal import chain from one
// package to a package satisfying target, importer first, or nil when
// none is reachable. from itself is not tested against target: a chain
// is at least one import long.
func (m *Module) Chain(from string, target func(string) bool) []string {
	type hop struct {
		path string
		prev *hop
	}
	visited := map[string]bool{from: true}
	queue := []*hop{{path: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, dep := range m.imports[cur.path] {
			if visited[dep] {
				continue
			}
			visited[dep] = true
			next := &hop{path: dep, prev: cur}
			if target(dep) {
				var chain []string
				for h := next; h != nil; h = h.prev {
					chain = append(chain, h.path)
				}
				for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
					chain[i], chain[j] = chain[j], chain[i]
				}
				return chain
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// ImportPos returns the position of from's import declaration of dep,
// so graph-level diagnostics anchor at the offending import line. Falls
// back to the package's first file when the spec is not found (e.g. a
// transitive-only edge).
func (m *Module) ImportPos(from, dep string) token.Pos {
	pkg := m.byPath[from]
	if pkg == nil {
		return token.NoPos
	}
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil && p == dep {
				return spec.Pos()
			}
		}
	}
	if len(pkg.Files) > 0 {
		return pkg.Files[0].Package
	}
	return token.NoPos
}

// ModulePass carries one module-scoped analyzer's run.
type ModulePass struct {
	Analyzer *Analyzer
	Mod      *Module
	// Config is the architecture description the graph analyzers check
	// against; never nil (Module.Run substitutes an empty config).
	Config *Config

	diags *[]Diagnostic
}

// Reportf records a module-scoped diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, nil, format, args...)
}

// ReportChain records a diagnostic carrying the offending import chain
// (importer first). The chain is appended to the rendered message and
// kept structured for -json consumers.
func (p *ModulePass) ReportChain(pos token.Pos, chain []string, format string, args ...any) {
	p.report(pos, chain, format, args...)
}

func (p *ModulePass) report(pos token.Pos, chain []string, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(chain) > 0 {
		msg += " (import chain: " + strings.Join(chain, " -> ") + ")"
	}
	var position token.Position
	if len(p.Mod.Pkgs) > 0 {
		position = p.Mod.Pkgs[0].Fset.Position(pos)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: msg,
		Scope:   ScopeModule,
		Chain:   append([]string(nil), chain...),
	})
}

// Run executes the full analyzer suite — file-scoped per package,
// module-scoped once over the whole module — applies //lint:ignore
// directives from every package, and returns the surviving diagnostics
// in the stable sorted order. cfg may be nil for no layer rules and an
// empty goroutine allowlist.
func (m *Module) Run(analyzers []*Analyzer, cfg *Config) []Diagnostic {
	if cfg == nil {
		cfg = &Config{}
	}
	var fileAnalyzers, moduleAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.Scope == ScopeModule {
			moduleAnalyzers = append(moduleAnalyzers, a)
		} else {
			fileAnalyzers = append(fileAnalyzers, a)
		}
	}

	diags := Run(m.Pkgs, fileAnalyzers)

	var modDiags []Diagnostic
	for _, a := range moduleAnalyzers {
		pass := &ModulePass{Analyzer: a, Mod: m, Config: cfg, diags: &modDiags}
		a.RunModule(pass)
	}
	if len(modDiags) > 0 {
		for _, pkg := range m.Pkgs {
			ign := collectIgnores(pkg)
			kept := modDiags[:0]
			for _, d := range modDiags {
				if !ign.suppresses(d) {
					kept = append(kept, d)
				}
			}
			modDiags = kept
		}
		diags = append(diags, modDiags...)
	}
	sortDiagnostics(diags)
	return diags
}
