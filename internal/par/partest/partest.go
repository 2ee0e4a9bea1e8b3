// Package partest holds test helpers for code that fans out with par.
package partest

import (
	"runtime"
	"testing"
)

// GOMAXPROCS sets runtime.GOMAXPROCS to n for the rest of the test or
// benchmark and restores the previous value in its cleanup. The setting
// is process-wide, so callers must not run in parallel with other tests.
func GOMAXPROCS(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
