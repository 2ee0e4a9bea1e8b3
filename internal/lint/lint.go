// Package lint implements circlelint, the project's determinism and
// concurrency static-analysis pass. It is built purely on the standard
// library (go/parser, go/ast, go/types, go/importer) because the module
// carries zero third-party dependencies and must stay that way.
//
// The reproduction's headline guarantee is byte-identical reports at a
// given seed regardless of worker count. That property is easy to break
// silently — an unordered map iteration feeding a report, a wall-clock
// seed, a float equality test on the edge of rounding — so the checks
// here enforce it mechanically instead of by code review:
//
//	maporder   range over a map feeding an output sink or returned slice
//	globalrng  math/rand global functions and wall-clock-seeded sources
//	walltime   time.Now / time.Since in non-test code
//	floateq    == / != between floating-point operands
//	ctxfirst   exported functions taking context.Context anywhere but first
//
// Those are file-scoped: each inspects one package at a time. The
// engine also runs module-scoped analyzers, which see every package of
// the module at once — shared cross-package type information plus the
// explicit import graph built by NewModule — from a single load
// (LoadModule parses and type-checks the module exactly once per run):
//
//	layering     declarative layer map over the import graph, chains reported
//	atomicmisuse a field accessed via sync/atomic in one place, plainly in another
//	gostmt       go statements outside the packages allowed to start goroutines
//
// A finding can be suppressed with a directive comment on the offending
// line or the line above it:
//
//	//lint:ignore <check> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Scope says how much of the module an analyzer needs to see at once.
type Scope int

const (
	// ScopeFile analyzers inspect one package at a time; they run per
	// package with that package's own type information.
	ScopeFile Scope = iota
	// ScopeModule analyzers see the whole module: every package, the
	// shared type information, and the import graph.
	ScopeModule
)

// String renders the scope the way `circlelint -json` reports it.
func (s Scope) String() string {
	if s == ScopeModule {
		return "module"
	}
	return "file"
}

// Diagnostic is one finding at a resolved source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	// Scope records which kind of analyzer produced the finding.
	Scope Scope
	// Chain is the offending module-internal import chain, importer
	// first, for graph-level findings (layering); nil for AST-level
	// ones.
	Chain []string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic for the running analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check. File-scoped analyzers set Run;
// module-scoped ones set Scope to ScopeModule and RunModule instead.
type Analyzer struct {
	Name  string
	Doc   string
	Scope Scope
	// Run executes a file-scoped analyzer over one package.
	Run func(*Pass)
	// RunModule executes a module-scoped analyzer over the whole module.
	RunModule func(*ModulePass)
}

// All returns the full analyzer suite in stable order: the file-scoped
// checks first, then the module-scoped ones.
func All() []*Analyzer {
	return []*Analyzer{
		Maporder,
		Globalrng,
		Walltime,
		Floateq,
		Ctxfirst,
		Layering,
		Atomicmisuse,
		Gostmt,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the file-scoped analyzers over every package, applies
// the //lint:ignore directives, and returns the surviving diagnostics
// sorted by position then check name. Module-scoped analyzers in the
// list are skipped — they need the import graph, so they run through
// Module.Run.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ign := collectIgnores(pkg)
		diags = append(diags, ign.malformed...)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			if a.Scope != ScopeFile {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &pkgDiags}
			a.Run(pass)
		}
		for _, d := range pkgDiags {
			if !ign.suppresses(d) {
				diags = append(diags, d)
			}
		}
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings by position then check name, the
// stable order every entry point emits.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}
