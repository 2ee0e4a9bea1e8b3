// Package pool is on the fixture's goroutine allowlist, so its go
// statement is not a finding.
package pool

import "sync"

// Run calls f on n workers and waits for them.
func Run(n int, f func()) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}
