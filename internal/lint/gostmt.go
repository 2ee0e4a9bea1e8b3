package lint

import "go/ast"

// Gostmt confines goroutines to the packages listed in
// Config.GoPackages. Every other package fans out through par.For,
// which bounds the workers by GOMAXPROCS and joins them before it
// returns, so a batch can neither outlive its caller nor grow with its
// input. The listed packages own the goroutines that cannot take that
// shape — par.For's own workers, the serving pool that Shutdown joins —
// and their join and bound are reviewed there rather than inferred
// here. Test files may start goroutines freely.
var Gostmt = &Analyzer{
	Name:      "gostmt",
	Doc:       "go statements in non-test code outside the packages allowed to start goroutines",
	Scope:     ScopeModule,
	RunModule: runGostmt,
}

func runGostmt(pass *ModulePass) {
	for _, pkg := range pass.Mod.Pkgs {
		if matchAny(pkg.Path, pass.Config.GoPackages) {
			continue
		}
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(),
						"go statement in %s, which is not in the goroutine allowlist (Config.GoPackages); fan out through par.For", pkg.Path)
				}
				return true
			})
		}
	}
}
