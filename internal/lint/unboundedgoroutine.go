package lint

import (
	"go/ast"
	"go/token"
)

// Unboundedgoroutine flags `go` statements that fan out once per loop
// iteration with no visible bound on concurrency: a `range` loop (or a
// condition-only / infinite `for`) spawning a goroutine per element can
// launch as many goroutines as the input has items — the load-dependent
// blowup the bounded pools in internal/serve and internal/par exist
// to prevent. The check recognizes the project's two bounded
// idioms and stays silent for them:
//
//   - a 3-clause counter loop (`for w := 1; w < workers; w++`), the
//     fixed-width worker pool par.For starts;
//   - a semaphore acquire in the loop body outside the go statement (a
//     channel send or receive executed before spawning).
//
// Genuinely unbounded fan-out that is intended must carry a
// //lint:ignore with the reason.
var Unboundedgoroutine = &Analyzer{
	Name: "unboundedgoroutine",
	Doc:  "go statements spawning once per loop iteration with no bounded pool or semaphore in scope",
	Run:  runUnboundedgoroutine,
}

func runUnboundedgoroutine(pass *Pass) {
	for _, fn := range functions(pass.Pkg) {
		inspectShallow(fn.body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.RangeStmt:
				body = loop.Body
			case *ast.ForStmt:
				// A 3-clause counter loop is the fixed-width pool idiom:
				// the iteration count, not the workload, bounds the spawns.
				if loop.Init != nil && loop.Post != nil {
					return true
				}
				body = loop.Body
			default:
				return true
			}
			spawns := loopSpawns(body)
			if len(spawns) == 0 || hasSemaphoreOp(body) {
				return true
			}
			for _, g := range spawns {
				pass.Reportf(g.Pos(),
					"goroutine spawned once per loop iteration with no visible bound in %s (no fixed-width pool or semaphore); fan-out grows with the input", fn.name)
			}
			return true
		})
	}
}

// loopSpawns collects the go statements in a loop body, not descending
// into nested function literals or nested loops (a nested loop is
// re-examined as its own candidate).
func loopSpawns(body *ast.BlockStmt) []*ast.GoStmt {
	var spawns []*ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.GoStmt:
			spawns = append(spawns, n)
		}
		return true
	})
	return spawns
}

// hasSemaphoreOp reports whether the loop body performs a channel send
// or receive outside the spawned goroutines — the token-acquire half of
// the semaphore idiom, which blocks the loop once the bound is reached.
func hasSemaphoreOp(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		}
		return !found
	})
	return found
}
