package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Goroutineleak flags `go` statements in functions that show no visible
// join: no sync.WaitGroup-style Wait call, no channel receive or range,
// and no select. A goroutine that outlives its spawner keeps writing
// into shared scorecards and buffers after the report is assembled —
// exactly the failure par.For (internal/par) and the serving pool in
// internal/serve avoid by joining before returning. Fire-and-forget
// goroutines that are genuinely intended must carry a //lint:ignore with
// the reason.
var Goroutineleak = &Analyzer{
	Name: "goroutineleak",
	Doc:  "go statements with no visible join (WaitGroup Wait, channel receive/range, select) in the enclosing function",
	Run:  runGoroutineleak,
}

func runGoroutineleak(pass *Pass) {
	for _, fn := range functions(pass.Pkg) {
		var spawns []*ast.GoStmt
		inspectShallow(fn.body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				spawns = append(spawns, g)
			}
			return true
		})
		if len(spawns) == 0 || hasJoin(pass.Pkg, fn.body) {
			continue
		}
		for _, g := range spawns {
			pass.Reportf(g.Pos(),
				"goroutine has no visible join in %s (no Wait, channel receive/range, or select); it may outlive its spawner", fn.name)
		}
	}
}

// hasJoin reports whether the function body (excluding nested function
// literals) contains a join point for spawned goroutines.
func hasJoin(pkg *Package, body ast.Node) bool {
	joined := false
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pkg, n); fn != nil && strings.HasSuffix(fn.Name(), "Wait") {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					joined = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joined = true
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					joined = true
				}
			}
		case *ast.SelectStmt:
			joined = true
		}
		return !joined
	})
	return joined
}
